//! Warm-restart state: the published world, persisted across crashes.
//!
//! A [`WorldSnapshot`](crate::snapshot::WorldSnapshot) is pure: it is
//! fully determined by the terrain, the survey step, the propagation
//! model, the epoch, and the beacon roster. So crash recovery does not
//! need to persist the (large) error map at all — it persists the tiny
//! generating inputs and **rebuilds** the snapshot at boot, which is
//! guaranteed bit-identical because the build path is deterministic.
//! This is the same discipline as `SweepCheckpoint` v2: a versioned,
//! CRC-guarded little-endian file written atomically (tmp + rename), and
//! a typed [`StateOpen`] report instead of silent fallbacks when an
//! existing file cannot be honoured.
//!
//! # File format (version 1, all little-endian)
//!
//! | bytes | field |
//! |-------|-------|
//! | 4 | magic `0x4142_5053` ("ABPS") |
//! | 2 | version (`1`) |
//! | 8 | config fingerprint ([`config_fingerprint`]) |
//! | 8 | epoch |
//! | 4 | beacon count `n` |
//! | 16·n | per beacon: `x` bits, `y` bits (slot order) |
//! | 4 | CRC32 (IEEE) over everything above |
//!
//! Beacon ids are implicit: the roster is written in slot order and
//! [`abp_field::BeaconField::from_positions`] reassigns the same
//! monotonic ids on load, exactly as the daemon's own boot path does.
//!
//! The config fingerprint folds the serve parameters that shape the
//! rebuild (terrain side, survey step, nominal range). A file written
//! under different parameters *would* rebuild to a different world, so
//! it is reported ([`StateOpen::IgnoredFingerprint`]) and the daemon
//! boots fresh rather than serving a silently inconsistent map.

use abp_geom::{crc32, splitmix64, Point, Terrain};
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

/// State-file magic: "ABPS" little-endian.
pub const STATE_MAGIC: u32 = 0x4142_5053;

/// Current state-file format version.
pub const STATE_VERSION: u16 = 1;

/// What the daemon should boot from, as decided by [`load_state`].
#[derive(Debug, Clone, PartialEq)]
pub enum StateOpen {
    /// No state file exists — first boot, start fresh.
    Fresh,
    /// A valid file matched the config: boot warm from this roster.
    Loaded {
        /// The epoch the killed daemon had published.
        epoch: u64,
        /// Beacon positions in slot order.
        positions: Vec<Point>,
    },
    /// A file exists but is torn, truncated, bit-rotted, or malformed;
    /// it is ignored (and will be overwritten on the next save).
    IgnoredCorrupt(String),
    /// A file exists but was written by an incompatible format version.
    IgnoredVersion(u16),
    /// A file exists but was written under different serve parameters;
    /// rebuilding from it would publish a different world than it saved.
    IgnoredFingerprint {
        /// The fingerprint recorded in the file.
        found: u64,
        /// The fingerprint of the booting configuration.
        expected: u64,
    },
}

impl StateOpen {
    /// A one-line human description for the daemon's stderr boot report.
    pub fn describe(&self) -> String {
        match self {
            StateOpen::Fresh => "no state file, booting fresh".into(),
            StateOpen::Loaded { epoch, positions } => format!(
                "restored epoch {epoch} with {} beacons (warm restart)",
                positions.len()
            ),
            StateOpen::IgnoredCorrupt(why) => {
                format!("existing state file ignored: {why}; booting fresh")
            }
            StateOpen::IgnoredVersion(v) => {
                format!("existing state file ignored: unsupported version {v}; booting fresh")
            }
            StateOpen::IgnoredFingerprint { found, expected } => format!(
                "existing state file ignored: config fingerprint {found:#018x} \
                 does not match {expected:#018x}; booting fresh"
            ),
        }
    }
}

/// Folds the serve parameters that determine the rebuilt world into one
/// fingerprint. Two configs with equal fingerprints rebuild a saved
/// roster into bit-identical snapshots.
pub fn config_fingerprint(side: f64, step: f64, nominal_range: f64) -> u64 {
    let mut h = splitmix64(0x5345_5256_4531u64); // "SERVE1"
    h = splitmix64(h ^ side.to_bits());
    h = splitmix64(h ^ step.to_bits());
    h = splitmix64(h ^ nominal_range.to_bits());
    h
}

// ---------------------------------------------------------------------
// Save.
// ---------------------------------------------------------------------

/// Serializes one published world generation.
fn encode_state(fingerprint: u64, epoch: u64, positions: &[Point]) -> Vec<u8> {
    let mut out = Vec::with_capacity(30 + positions.len() * 16);
    out.extend_from_slice(&STATE_MAGIC.to_le_bytes());
    out.extend_from_slice(&STATE_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(positions.len() as u32).to_le_bytes());
    for p in positions {
        out.extend_from_slice(&p.x.to_bits().to_le_bytes());
        out.extend_from_slice(&p.y.to_bits().to_le_bytes());
    }
    let crc = crc32(0, &out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Atomically persists `epoch` + `positions` under `fingerprint` to
/// `path`: the bytes land in `path.tmp` first and are renamed into
/// place, so a crash mid-save leaves the previous good file intact.
///
/// Control-plane only (runs on the rebuilder thread and at boot) — it
/// allocates and does file I/O, and must never be called from a
/// connection thread.
///
/// # Errors
///
/// Propagates filesystem errors (unwritable directory, rename failure).
pub fn save_state(
    path: &Path,
    fingerprint: u64,
    epoch: u64,
    positions: &[Point],
) -> io::Result<()> {
    let bytes = encode_state(fingerprint, epoch, positions);
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------
// Load.
// ---------------------------------------------------------------------

struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }
    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
}

/// Decodes `bytes` as a state file, honouring only files that match
/// `expected_fingerprint` and whose roster fits inside `terrain`.
fn decode_state(bytes: &[u8], expected_fingerprint: u64, terrain: Terrain) -> StateOpen {
    // CRC trailer first: everything else is untrustworthy until then.
    if bytes.len() < 4 {
        return StateOpen::IgnoredCorrupt("file shorter than its CRC trailer".into());
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let recorded = u32::from_le_bytes(trailer.try_into().unwrap());
    let actual = crc32(0, body);
    if recorded != actual {
        return StateOpen::IgnoredCorrupt(format!(
            "CRC mismatch (recorded {recorded:#010x}, computed {actual:#010x})"
        ));
    }
    let mut r = Reader(body);
    match r.u32() {
        Some(STATE_MAGIC) => {}
        _ => return StateOpen::IgnoredCorrupt("bad magic".into()),
    }
    let version = match r.u16() {
        Some(v) => v,
        None => return StateOpen::IgnoredCorrupt("truncated header".into()),
    };
    if version != STATE_VERSION {
        return StateOpen::IgnoredVersion(version);
    }
    let Some(found) = r.u64() else {
        return StateOpen::IgnoredCorrupt("truncated header".into());
    };
    if found != expected_fingerprint {
        return StateOpen::IgnoredFingerprint {
            found,
            expected: expected_fingerprint,
        };
    }
    let Some(epoch) = r.u64() else {
        return StateOpen::IgnoredCorrupt("truncated header".into());
    };
    let Some(count) = r.u32() else {
        return StateOpen::IgnoredCorrupt("truncated header".into());
    };
    if (count as u64) * 16 != r.0.len() as u64 {
        return StateOpen::IgnoredCorrupt(format!(
            "roster count {count} does not match {} payload bytes",
            r.0.len()
        ));
    }
    let mut positions = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let x = f64::from_bits(r.u64().expect("length checked"));
        let y = f64::from_bits(r.u64().expect("length checked"));
        let p = Point::new(x, y);
        if !p.is_finite() || !terrain.contains(p) {
            return StateOpen::IgnoredCorrupt(format!(
                "beacon position {p} outside the configured terrain"
            ));
        }
        positions.push(p);
    }
    StateOpen::Loaded { epoch, positions }
}

/// Opens `path` and decides what the daemon should boot from. Never
/// fails hard: a missing file is [`StateOpen::Fresh`] and every damaged
/// or mismatched file is a typed `Ignored*` variant the daemon reports
/// and overwrites on its next save.
pub fn load_state(path: &Path, expected_fingerprint: u64, terrain: Terrain) -> StateOpen {
    let mut f = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return StateOpen::Fresh,
        Err(e) => return StateOpen::IgnoredCorrupt(format!("open failed: {e}")),
    };
    let mut bytes = Vec::new();
    if let Err(e) = f.read_to_end(&mut bytes) {
        return StateOpen::IgnoredCorrupt(format!("read failed: {e}"));
    }
    decode_state(&bytes, expected_fingerprint, terrain)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roster() -> Vec<Point> {
        vec![
            Point::new(1.5, 2.5),
            Point::new(40.0, 59.999),
            Point::new(0.25 + 0.5, 33.0 / 7.0),
        ]
    }

    fn fingerprint() -> u64 {
        config_fingerprint(60.0, 4.0, 15.0)
    }

    #[test]
    fn save_load_roundtrips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("abp-state-rt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.state");
        save_state(&path, fingerprint(), 7, &roster()).unwrap();
        let open = load_state(&path, fingerprint(), Terrain::square(60.0));
        let StateOpen::Loaded { epoch, positions } = open else {
            panic!("expected Loaded, got {open:?}");
        };
        assert_eq!(epoch, 7);
        assert_eq!(positions.len(), 3);
        for (a, b) in positions.iter().zip(roster().iter()) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
        }
        // No stray tmp file after a clean save.
        assert!(!path.with_extension("tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_fresh() {
        let path = std::env::temp_dir().join("abp-state-definitely-missing.state");
        assert_eq!(
            load_state(&path, fingerprint(), Terrain::square(60.0)),
            StateOpen::Fresh
        );
    }

    #[test]
    fn corruption_version_and_fingerprint_are_typed() {
        let dir = std::env::temp_dir().join(format!("abp-state-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.state");
        let terrain = Terrain::square(60.0);

        // Bit flip in the body → CRC mismatch.
        save_state(&path, fingerprint(), 3, &roster()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[10] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_state(&path, fingerprint(), terrain),
            StateOpen::IgnoredCorrupt(_)
        ));

        // Truncation → CRC mismatch or short file, never a panic.
        save_state(&path, fingerprint(), 3, &roster()).unwrap();
        let bytes = fs::read(&path).unwrap();
        for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(matches!(
                load_state(&path, fingerprint(), terrain),
                StateOpen::IgnoredCorrupt(_)
            ));
        }

        // Future version (re-CRC'd so only the version differs).
        let mut future = encode_state(fingerprint(), 3, &roster());
        future.truncate(future.len() - 4);
        future[4..6].copy_from_slice(&(STATE_VERSION + 1).to_le_bytes());
        let crc = crc32(0, &future);
        future.extend_from_slice(&crc.to_le_bytes());
        fs::write(&path, &future).unwrap();
        assert_eq!(
            load_state(&path, fingerprint(), terrain),
            StateOpen::IgnoredVersion(STATE_VERSION + 1)
        );

        // Different serve parameters.
        save_state(&path, fingerprint(), 3, &roster()).unwrap();
        let other = config_fingerprint(100.0, 1.0, 15.0);
        assert!(matches!(
            load_state(&path, other, terrain),
            StateOpen::IgnoredFingerprint { .. }
        ));

        // A roster outside the configured terrain is corrupt, not a
        // panic in BeaconField::add_beacon later.
        save_state(&path, fingerprint(), 3, &[Point::new(999.0, 1.0)]).unwrap();
        assert!(matches!(
            load_state(&path, fingerprint(), terrain),
            StateOpen::IgnoredCorrupt(_)
        ));

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_fingerprint_separates_parameters() {
        let base = config_fingerprint(100.0, 1.0, 15.0);
        assert_eq!(base, config_fingerprint(100.0, 1.0, 15.0));
        assert_ne!(base, config_fingerprint(100.0, 2.0, 15.0));
        assert_ne!(base, config_fingerprint(60.0, 1.0, 15.0));
        assert_ne!(base, config_fingerprint(100.0, 1.0, 20.0));
    }

    #[test]
    fn describe_lines_are_informative() {
        assert!(StateOpen::Fresh.describe().contains("fresh"));
        let loaded = StateOpen::Loaded {
            epoch: 4,
            positions: roster(),
        };
        assert!(loaded.describe().contains("epoch 4"));
        assert!(loaded.describe().contains("3 beacons"));
        assert!(StateOpen::IgnoredVersion(9)
            .describe()
            .contains("version 9"));
    }
}
