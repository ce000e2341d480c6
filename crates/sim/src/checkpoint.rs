//! Crash-safe checkpointing for long sweeps.
//!
//! A [`SweepCheckpoint`] is a small key-value store persisted to one file:
//! experiments write one entry per completed density sweep (keyed by
//! experiment, noise level, and density) and read entries back on the next
//! run, skipping whatever already completed. Values are opaque byte blobs
//! encoded by the experiment; every `f64` inside them travels as raw IEEE
//! bits, so a resumed run reproduces the uninterrupted run **bit for
//! bit**.
//!
//! The file format follows the `abp-survey` snapshot conventions:
//! big-endian, magic + version header, then a fingerprint of the
//! [`SimConfig`](crate::SimConfig) that produced the entries. A checkpoint
//! whose fingerprint does not match the current configuration is ignored
//! (stale results must never leak into a differently-parameterized run).
//! Saves go through a temp file + atomic rename, so an interrupt mid-save
//! leaves the previous checkpoint intact.
//!
//! Two defenses against silent data problems:
//!
//! * every entry carries a CRC32 of its key + value, so a torn or
//!   bit-rotted blob is **quarantined** — skipped and recomputed by the
//!   resumed sweep — instead of poisoning a resumed figure, while intact
//!   entries around it still load;
//! * [`SweepCheckpoint::opened`] reports exactly what `open` found
//!   ([`CheckpointOpen`]), and the run loop surfaces it through the
//!   `Probe::checkpoint_opened` event, so an operator can always tell a
//!   resumed run from one that silently started fresh.

use abp_geom::crc32;
use bytes::{Buf, BufMut, BytesMut};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// `"ABPC"` — adaptive beacon placement checkpoint.
const MAGIC: u32 = 0x4142_5043;
/// Version 2 added the per-entry CRC32; version-1 files are reported as
/// [`CheckpointOpen::IgnoredVersion`] and regenerated.
const VERSION: u16 = 2;

/// CRC32 over an entry's key and value together.
fn entry_crc(key: &str, value: &[u8]) -> u32 {
    crc32(crc32(0, key.as_bytes()), value)
}

/// What [`SweepCheckpoint::open`] found at the path.
///
/// Anything other than `Created` / a clean `Resumed` deserves operator
/// attention: an `Ignored*` variant means an existing file was set aside
/// and the run will recompute everything, and a non-zero `quarantined`
/// count means some entries failed their CRC and will be recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointOpen {
    /// No file existed; a fresh checkpoint will be written.
    Created,
    /// The file matched and its intact entries were loaded.
    Resumed {
        /// Entries that passed their CRC and were loaded.
        entries: usize,
        /// Entries quarantined for CRC mismatch or torn encoding; the
        /// sweep recomputes them.
        quarantined: usize,
    },
    /// The file has a different format version; it was ignored.
    IgnoredVersion {
        /// The version found in the file.
        found: u16,
    },
    /// The file was produced by a differently-parameterized run; it was
    /// ignored.
    IgnoredFingerprint {
        /// The fingerprint found in the file.
        found: u64,
    },
    /// The file is not a checkpoint at all (bad magic or truncated
    /// header); it was ignored.
    IgnoredCorrupt,
}

impl CheckpointOpen {
    /// Whether an existing file was set aside rather than resumed.
    pub fn is_ignored(&self) -> bool {
        matches!(
            self,
            CheckpointOpen::IgnoredVersion { .. }
                | CheckpointOpen::IgnoredFingerprint { .. }
                | CheckpointOpen::IgnoredCorrupt
        )
    }

    /// Number of entries quarantined for failing their CRC.
    pub fn quarantined(&self) -> usize {
        match *self {
            CheckpointOpen::Resumed { quarantined, .. } => quarantined,
            _ => 0,
        }
    }
}

impl fmt::Display for CheckpointOpen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CheckpointOpen::Created => f.write_str("created (no existing file)"),
            CheckpointOpen::Resumed {
                entries,
                quarantined: 0,
            } => {
                write!(f, "resumed ({entries} entries)")
            }
            CheckpointOpen::Resumed {
                entries,
                quarantined,
            } => write!(
                f,
                "resumed ({entries} entries, {quarantined} quarantined by CRC and recomputing)"
            ),
            CheckpointOpen::IgnoredVersion { found } => write!(
                f,
                "existing file ignored: format version {found} (expected {VERSION}); starting fresh"
            ),
            CheckpointOpen::IgnoredFingerprint { found } => write!(
                f,
                "existing file ignored: config fingerprint {found:#018x} does not match; starting fresh"
            ),
            CheckpointOpen::IgnoredCorrupt => {
                f.write_str("existing file ignored: not a readable checkpoint; starting fresh")
            }
        }
    }
}

/// A persistent map of completed sweep results, safe to share across
/// worker threads.
#[derive(Debug)]
pub struct SweepCheckpoint {
    path: PathBuf,
    fingerprint: u64,
    opened: CheckpointOpen,
    entries: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl SweepCheckpoint {
    /// Opens (or creates) the checkpoint at `path` for a configuration
    /// with the given fingerprint.
    ///
    /// An existing file with a different fingerprint, an unknown version,
    /// or a corrupt header is treated as absent: the run starts fresh and
    /// overwrites it on the first save — and [`SweepCheckpoint::opened`]
    /// records which of those happened so the caller can tell the
    /// operator. Individual entries failing their CRC are quarantined
    /// (dropped and recomputed) without discarding the rest of the file.
    /// Only real I/O errors (permissions, directories, ...) are returned.
    pub fn open(path: impl Into<PathBuf>, fingerprint: u64) -> io::Result<Self> {
        let path = path.into();
        let (entries, opened) = match std::fs::read(&path) {
            Ok(raw) => match decode(&raw, fingerprint) {
                Decoded::Entries {
                    entries,
                    quarantined,
                } => {
                    let n = entries.len();
                    (
                        entries,
                        CheckpointOpen::Resumed {
                            entries: n,
                            quarantined,
                        },
                    )
                }
                Decoded::Ignored(open) => (BTreeMap::new(), open),
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                (BTreeMap::new(), CheckpointOpen::Created)
            }
            Err(e) => return Err(e),
        };
        Ok(SweepCheckpoint {
            path,
            fingerprint,
            opened,
            entries: Mutex::new(entries),
        })
    }

    /// What [`SweepCheckpoint::open`] found (resumed, created, ignored,
    /// quarantined entries).
    pub fn opened(&self) -> CheckpointOpen {
        self.opened
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("checkpoint entries").len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.entries
            .lock()
            .expect("checkpoint entries")
            .get(key)
            .cloned()
    }

    /// Stores `value` under `key` and persists the whole checkpoint
    /// atomically (temp file + rename).
    pub fn put(&self, key: &str, value: Vec<u8>) -> io::Result<()> {
        let encoded = {
            let mut entries = self.entries.lock().expect("checkpoint entries");
            entries.insert(key.to_string(), value);
            encode(self.fingerprint, &entries)
        };
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, &encoded)?;
        std::fs::rename(&tmp, &self.path)
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn encode(fingerprint: u64, entries: &BTreeMap<String, Vec<u8>>) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(
        22 + entries
            .iter()
            .map(|(k, v)| k.len() + v.len() + 10)
            .sum::<usize>(),
    );
    buf.put_u32(MAGIC);
    buf.put_u16(VERSION);
    buf.put_u64(fingerprint);
    buf.put_u64(entries.len() as u64);
    for (key, value) in entries {
        buf.put_u16(u16::try_from(key.len()).expect("checkpoint key under 64 KiB"));
        buf.put_slice(key.as_bytes());
        buf.put_u32(u32::try_from(value.len()).expect("checkpoint value under 4 GiB"));
        buf.put_slice(value);
        buf.put_u32(entry_crc(key, value));
    }
    buf.freeze().to_vec()
}

/// Outcome of decoding a checkpoint file.
enum Decoded {
    /// Header matched; intact entries loaded, damaged ones counted.
    Entries {
        entries: BTreeMap<String, Vec<u8>>,
        quarantined: usize,
    },
    /// The whole file was set aside for the stated reason.
    Ignored(CheckpointOpen),
}

fn decode(raw: &[u8], fingerprint: u64) -> Decoded {
    let mut buf = raw;
    if buf.remaining() < 4 + 2 + 8 + 8 {
        return Decoded::Ignored(CheckpointOpen::IgnoredCorrupt);
    }
    if buf.get_u32() != MAGIC {
        return Decoded::Ignored(CheckpointOpen::IgnoredCorrupt);
    }
    let version = buf.get_u16();
    if version != VERSION {
        return Decoded::Ignored(CheckpointOpen::IgnoredVersion { found: version });
    }
    let found = buf.get_u64();
    if found != fingerprint {
        return Decoded::Ignored(CheckpointOpen::IgnoredFingerprint { found });
    }
    let n = buf.get_u64();
    let mut entries = BTreeMap::new();
    let mut quarantined = 0usize;
    for _ in 0..n {
        // A torn tail (truncated mid-entry) quarantines the remainder as
        // one damaged blob; everything decoded so far is kept.
        if buf.remaining() < 2 {
            quarantined += 1;
            return Decoded::Entries {
                entries,
                quarantined,
            };
        }
        let klen = buf.get_u16() as usize;
        if buf.remaining() < klen {
            quarantined += 1;
            return Decoded::Entries {
                entries,
                quarantined,
            };
        }
        let key_bytes = buf[..klen].to_vec();
        buf = &buf[klen..];
        if buf.remaining() < 4 {
            quarantined += 1;
            return Decoded::Entries {
                entries,
                quarantined,
            };
        }
        let vlen = buf.get_u32() as usize;
        if buf.remaining() < vlen + 4 {
            quarantined += 1;
            return Decoded::Entries {
                entries,
                quarantined,
            };
        }
        let value = buf[..vlen].to_vec();
        buf = &buf[vlen..];
        let stored_crc = buf.get_u32();
        match String::from_utf8(key_bytes) {
            Ok(key) if entry_crc(&key, &value) == stored_crc => {
                entries.insert(key, value);
            }
            // Bit rot: the blob decodes structurally but its CRC (or key
            // encoding) is wrong. Quarantine it and keep going — later
            // entries are validated independently.
            _ => quarantined += 1,
        }
    }
    if buf.remaining() != 0 {
        quarantined += 1;
    }
    Decoded::Entries {
        entries,
        quarantined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("abp-ckpt-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_across_reopen() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let ckpt = SweepCheckpoint::open(&path, 42).unwrap();
            assert!(ckpt.is_empty());
            assert_eq!(ckpt.opened(), CheckpointOpen::Created);
            ckpt.put("a/0", vec![1, 2, 3]).unwrap();
            ckpt.put("a/1", 7.5_f64.to_bits().to_be_bytes().to_vec())
                .unwrap();
        }
        let ckpt = SweepCheckpoint::open(&path, 42).unwrap();
        assert_eq!(ckpt.len(), 2);
        assert_eq!(
            ckpt.opened(),
            CheckpointOpen::Resumed {
                entries: 2,
                quarantined: 0
            }
        );
        assert_eq!(ckpt.get("a/0"), Some(vec![1, 2, 3]));
        let bits = u64::from_be_bytes(ckpt.get("a/1").unwrap().try_into().unwrap());
        assert_eq!(f64::from_bits(bits), 7.5);
        assert_eq!(ckpt.get("missing"), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_starts_fresh_and_reports_it() {
        let path = tmp_path("fingerprint");
        let _ = std::fs::remove_file(&path);
        {
            let ckpt = SweepCheckpoint::open(&path, 1).unwrap();
            ckpt.put("k", vec![9]).unwrap();
        }
        let stale = SweepCheckpoint::open(&path, 2).unwrap();
        assert!(stale.is_empty(), "stale entries must not be visible");
        assert_eq!(
            stale.opened(),
            CheckpointOpen::IgnoredFingerprint { found: 1 }
        );
        assert!(stale.opened().is_ignored());
        // And writing under the new fingerprint replaces the file.
        stale.put("k2", vec![1]).unwrap();
        let reread = SweepCheckpoint::open(&path, 2).unwrap();
        assert_eq!(reread.get("k2"), Some(vec![1]));
        assert_eq!(reread.get("k"), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_mismatch_is_reported() {
        let path = tmp_path("version");
        // Hand-build a version-1 header (pre-CRC format).
        let mut raw = Vec::new();
        raw.extend_from_slice(&MAGIC.to_be_bytes());
        raw.extend_from_slice(&1u16.to_be_bytes());
        raw.extend_from_slice(&7u64.to_be_bytes());
        raw.extend_from_slice(&0u64.to_be_bytes());
        std::fs::write(&path, &raw).unwrap();
        let ckpt = SweepCheckpoint::open(&path, 7).unwrap();
        assert!(ckpt.is_empty());
        assert_eq!(ckpt.opened(), CheckpointOpen::IgnoredVersion { found: 1 });
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_file_is_ignored() {
        let path = tmp_path("corrupt");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        let ckpt = SweepCheckpoint::open(&path, 0).unwrap();
        assert!(ckpt.is_empty());
        assert_eq!(ckpt.opened(), CheckpointOpen::IgnoredCorrupt);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_quarantined_but_prior_entries_survive() {
        let path = tmp_path("torn");
        let entries = BTreeMap::from([
            ("a".to_string(), vec![1u8; 10]),
            ("b".to_string(), vec![2u8; 100]),
        ]);
        let valid = encode(0, &entries);
        // Cut into the middle of entry "b" — a torn write.
        std::fs::write(&path, &valid[..valid.len() - 30]).unwrap();
        let ckpt = SweepCheckpoint::open(&path, 0).unwrap();
        assert_eq!(ckpt.get("a"), Some(vec![1u8; 10]));
        assert_eq!(ckpt.get("b"), None);
        assert_eq!(
            ckpt.opened(),
            CheckpointOpen::Resumed {
                entries: 1,
                quarantined: 1
            }
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_rot_quarantines_only_the_damaged_entry() {
        let path = tmp_path("bitrot");
        let entries = BTreeMap::from([
            ("a".to_string(), vec![1, 2, 3]),
            ("b".to_string(), vec![4, 5, 6]),
        ]);
        let mut raw = encode(0xF00D, &entries);
        // Entry "a" is first (BTreeMap order). Layout: 22-byte header,
        // then klen(2) + "a"(1) + vlen(4) → its value starts at 29.
        raw[29] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let ckpt = SweepCheckpoint::open(&path, 0xF00D).unwrap();
        assert_eq!(ckpt.get("a"), None, "rotted entry must be quarantined");
        assert_eq!(ckpt.get("b"), Some(vec![4, 5, 6]), "intact entry must load");
        assert_eq!(
            ckpt.opened(),
            CheckpointOpen::Resumed {
                entries: 1,
                quarantined: 1
            }
        );
        // Recomputing the quarantined key repairs the file in place.
        ckpt.put("a", vec![9, 9]).unwrap();
        let healed = SweepCheckpoint::open(&path, 0xF00D).unwrap();
        assert_eq!(healed.get("a"), Some(vec![9, 9]));
        assert_eq!(healed.get("b"), Some(vec![4, 5, 6]));
        assert_eq!(healed.opened().quarantined(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_fresh_store() {
        let path = tmp_path("missing");
        let _ = std::fs::remove_file(&path);
        let ckpt = SweepCheckpoint::open(&path, 0).unwrap();
        assert!(ckpt.is_empty());
        assert_eq!(ckpt.opened(), CheckpointOpen::Created);
        assert_eq!(ckpt.path(), path.as_path());
    }
}
