//! The on-disk result cache: `artifacts/campaign/<hash>.json`.
//!
//! An entry is only ever written through [`write_atomic`], so a
//! campaign killed mid-write leaves a `.tmp` straggler, never a
//! truncated entry under the content address. Loading is paranoid to
//! match: an entry is used only if it parses as strict JSON, carries
//! the expected schema tag, and its embedded hash *and* canonical
//! config line both match what the caller expects. Anything less —
//! truncation that slipped past the rename, a hand-edited file, a
//! hash collision across cache generations — reads as a miss and the
//! run is recomputed; the cache can never make a campaign wrong, only
//! faster.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::cliutil::{write_atomic, CliError};
use crate::json::Json;

/// Schema tag for on-disk entries. Bump on any change to the entry
/// layout *or* to the content-address function.
pub(crate) const ENTRY_SCHEMA: &str = "sioscope-campaign-run/1";

/// One cached run result. All metrics are integers (nanoseconds,
/// counts, fixed-point milli/micro units) so the JSON rendering is
/// bit-identical however the entry was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// Content address of the run (32 hex chars).
    pub hash: String,
    /// The canonical config line the hash was computed over.
    pub canon: String,
    /// `"ok"`, `"failed: <reason>"` or `"panicked: <reason>"`.
    pub status: String,
    /// Deterministic integer metrics, canonically ordered.
    pub metrics: BTreeMap<String, u64>,
}

impl CacheEntry {
    /// Whether the run completed and passed its checks.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// The entry as canonical JSON.
    pub(crate) fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("schema".to_string(), Json::Str(ENTRY_SCHEMA.to_string()));
        obj.insert("hash".to_string(), Json::Str(self.hash.clone()));
        obj.insert("canon".to_string(), Json::Str(self.canon.clone()));
        obj.insert("status".to_string(), Json::Str(self.status.clone()));
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), Json::UInt(*v)))
            .collect();
        obj.insert("metrics".to_string(), Json::Object(metrics));
        Json::Object(obj)
    }

    /// Parse an entry back out of JSON, validating the schema tag.
    /// Returns `None` on any shape mismatch.
    pub(crate) fn from_json(value: &Json) -> Option<CacheEntry> {
        let obj = value.as_object()?;
        if obj.get("schema")?.as_str()? != ENTRY_SCHEMA {
            return None;
        }
        let mut metrics = BTreeMap::new();
        for (key, v) in obj.get("metrics")?.as_object()? {
            metrics.insert(key.clone(), v.as_u64()?);
        }
        Some(CacheEntry {
            hash: obj.get("hash")?.as_str()?.to_string(),
            canon: obj.get("canon")?.as_str()?.to_string(),
            status: obj.get("status")?.as_str()?.to_string(),
            metrics,
        })
    }
}

/// The file an entry for `hash` lives at under `cache_dir`.
pub(crate) fn entry_path(cache_dir: &Path, hash: &str) -> PathBuf {
    cache_dir.join(format!("{hash}.json"))
}

/// Load the cached entry for (`hash`, `canon`), or `None` if there is
/// no trustworthy one: missing file, unreadable file, invalid JSON,
/// wrong schema, or an embedded hash/canon that disagrees with what
/// the caller is asking for.
pub fn load(cache_dir: &Path, hash: &str, canon: &str) -> Option<CacheEntry> {
    let text = std::fs::read_to_string(entry_path(cache_dir, hash)).ok()?;
    let entry = CacheEntry::from_json(&Json::parse(&text).ok()?)?;
    if entry.hash == hash && entry.canon == canon {
        Some(entry)
    } else {
        None
    }
}

/// Persist `entry` under its content address, crash-safely.
pub fn store(cache_dir: &Path, entry: &CacheEntry) -> Result<(), CliError> {
    std::fs::create_dir_all(cache_dir).map_err(|e| CliError::io(cache_dir, e))?;
    let path = entry_path(cache_dir, &entry.hash);
    let mut rendered = entry.to_json().render_pretty();
    rendered.push('\n');
    write_atomic(&path, rendered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> CacheEntry {
        CacheEntry {
            hash: "0123456789abcdef0123456789abcdef".to_string(),
            canon: "v=1;kind=sweep;id=stripe-width;scale=smoke".to_string(),
            status: "ok".to_string(),
            metrics: BTreeMap::from([
                ("points".to_string(), 5),
                ("total_events".to_string(), 123_456),
            ]),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sioscope-campaign-cache-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = tmpdir("roundtrip");
        let e = entry();
        store(&dir, &e).unwrap();
        assert_eq!(load(&dir, &e.hash, &e.canon), Some(e.clone()));
        // No .tmp stragglers after a clean store.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|d| d.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_round_trip_is_exact() {
        let e = entry();
        let rendered = e.to_json().render();
        let back = CacheEntry::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back, e);
        // Same entry, same bytes: the determinism guarantee the
        // campaign report inherits.
        assert_eq!(back.to_json().render(), rendered);
    }

    #[test]
    fn distrusts_bad_entries() {
        let dir = tmpdir("distrust");
        let e = entry();
        store(&dir, &e).unwrap();
        let path = entry_path(&dir, &e.hash);
        let good = std::fs::read_to_string(&path).unwrap();

        // Truncated JSON -> miss.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert_eq!(load(&dir, &e.hash, &e.canon), None);

        // Valid JSON, wrong schema tag -> miss.
        std::fs::write(&path, good.replace("run/1", "run/9")).unwrap();
        assert_eq!(load(&dir, &e.hash, &e.canon), None);

        // Valid entry under the right file name but for a different
        // canon (stale cache generation) -> miss.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(
            load(&dir, &e.hash, "v=1;kind=sweep;id=other;scale=smoke"),
            None
        );

        // Missing file -> miss, not an error.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(load(&dir, &e.hash, &e.canon), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn from_json_rejects_shape_drift() {
        let e = entry();
        let Json::Object(mut obj) = e.to_json() else {
            panic!("entry must be an object")
        };
        obj.remove("status");
        assert_eq!(CacheEntry::from_json(&Json::Object(obj)), None);
        assert_eq!(
            CacheEntry::from_json(&Json::parse("{\"schema\": 1}").unwrap()),
            None
        );
        // Metrics must be unsigned integers.
        let doc = e.to_json().render().replace(":123456", ":\"123456\"");
        assert_eq!(CacheEntry::from_json(&Json::parse(&doc).unwrap()), None);
    }
}
