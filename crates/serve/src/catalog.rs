//! The model catalog: a watched directory of `NMMODEL` artifacts with
//! crash-safe writes and automatic newest-valid-version adoption.
//!
//! ## Layout
//!
//! ```text
//! <root>/<tenant>/<version>.nmmodel
//! ```
//!
//! One subdirectory per tenant; each artifact is named by its decimal
//! model version. Anything else — `*.tmp` files mid-write, foreign files,
//! non-numeric names — is ignored by the scanner, so a writer that dies
//! between `create` and `rename` leaves nothing adoptable behind.
//!
//! ## Adoption contract
//!
//! [`Catalog::latest_valid`] walks a tenant's versions in **descending**
//! order and returns the first artifact that passes full `NMMODEL`
//! validation (magic, framing, both CRC32Cs, payload decode — see
//! [`crate::model_io`]). Corrupt, truncated, or torn files are counted and
//! skipped, never adopted; the result is therefore the *highest valid*
//! version regardless of directory-entry order or interleaved garbage.
//!
//! [`Catalog::sync`] runs that scan against a live [`ModelRegistry`] and
//! adopts the model the scan decoded (each artifact is read once) through
//! [`ModelRegistry::adopt_if_newer`] — so a bad read can never downgrade a
//! tenant: the last-good model keeps serving until a strictly newer valid
//! artifact appears. The [`Supervisor`](crate::Supervisor) runs the pass
//! once at startup and then on its catalog interval. Writers use
//! [`Catalog::write`] (tmp + rename, fsync before rename) so a crash
//! mid-write is invisible to readers.

use std::path::{Path, PathBuf};

use noisemine_core::PatternModel;

use crate::model_io::{read_model, write_model, ModelIoResult};
use crate::registry::{Adoption, ModelRegistry, ServeModel};

/// The artifact extension every catalog entry must carry.
const EXT: &str = "nmmodel";

/// A model-catalog directory (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct Catalog {
    root: PathBuf,
}

/// What one catalog pass over one tenant found.
#[derive(Debug, Clone, Default)]
pub struct TenantScan {
    /// The highest valid version and the model decoded from it, if any
    /// artifact validated.
    pub newest_valid: Option<(u64, PatternModel)>,
    /// Artifacts that failed validation (corrupt/truncated/torn) at or
    /// above the newest valid version.
    pub rejected: usize,
}

/// What one full catalog sync against a registry did.
#[derive(Debug, Clone, Default)]
pub struct SyncReport {
    /// `(tenant, version)` adoptions performed this pass.
    pub adopted: Vec<(String, u64)>,
    /// Artifacts rejected by validation across all tenants.
    pub rejected: usize,
    /// Tenants whose directory exists but holds no valid artifact.
    pub modelless: Vec<String>,
}

impl Catalog {
    /// A catalog rooted at `root` (the directory need not exist yet; it is
    /// created on first write).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The catalog's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The canonical artifact path for `(tenant, version)`.
    pub fn model_path(&self, tenant: &str, version: u64) -> PathBuf {
        self.root.join(tenant).join(format!("{version}.{EXT}"))
    }

    /// Writes `model` into the catalog crash-safely (tmp file, fsync,
    /// rename — readers either see the complete artifact or nothing) and
    /// returns its path. The tenant directory is created as needed.
    pub fn write(&self, tenant: &str, model: &PatternModel) -> ModelIoResult<PathBuf> {
        let dir = self.root.join(tenant);
        std::fs::create_dir_all(&dir)?;
        let path = self.model_path(tenant, model.version);
        write_model(&path, model)?;
        Ok(path)
    }

    /// Tenant names present in the catalog (subdirectories of the root),
    /// sorted. A missing root is an empty catalog, not an error.
    pub fn tenant_names(&self) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.file_type().map(|t| t.is_dir()).unwrap_or(false))
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| !n.starts_with('.'))
            .collect();
        names.sort();
        names
    }

    /// Versions on disk for `tenant` (valid or not), descending. Only
    /// `<decimal>.nmmodel` names count; `.tmp` and foreign files are
    /// invisible.
    pub fn versions(&self, tenant: &str) -> Vec<u64> {
        let Ok(entries) = std::fs::read_dir(self.root.join(tenant)) else {
            return Vec::new();
        };
        let mut versions: Vec<u64> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .filter_map(|e| e.file_name().into_string().ok())
            .filter_map(|name| {
                let stem = name.strip_suffix(&format!(".{EXT}"))?;
                // Strictly decimal stems only: "0012" would collide with
                // "12", so leading zeros are foreign too.
                if stem.is_empty() || (stem.len() > 1 && stem.starts_with('0')) {
                    return None;
                }
                stem.parse::<u64>().ok()
            })
            .collect();
        versions.sort_unstable_by(|a, b| b.cmp(a));
        versions.dedup();
        versions
    }

    /// Scans `tenant` for its newest valid artifact: versions are tried in
    /// descending order, each fully validated before it can win; invalid
    /// artifacts are counted in [`TenantScan::rejected`] and skipped.
    ///
    /// `floor` short-circuits the walk: versions `<= floor` are not even
    /// opened (the registry already serves `floor`, and adoption is
    /// newer-only) — so a steady-state pass costs one `read_dir`, no reads.
    pub fn scan_tenant(&self, tenant: &str, floor: Option<u64>) -> TenantScan {
        let mut scan = TenantScan::default();
        for version in self.versions(tenant) {
            if floor.is_some_and(|f| version <= f) {
                break;
            }
            match read_model(self.model_path(tenant, version)) {
                Ok(model) if model.version == version => {
                    scan.newest_valid = Some((version, model));
                    break;
                }
                // A valid file whose embedded version disagrees with its
                // filename is a mislabeled artifact — adopting it would
                // break version monotonicity, so it is rejected too.
                Ok(_) | Err(_) => {
                    crate::obs::catalog_rejects().inc();
                    scan.rejected += 1;
                }
            }
        }
        scan
    }

    /// The highest valid version for `tenant` and its decoded model, if
    /// any (test- and tooling-facing; [`Self::sync`] uses
    /// [`Self::scan_tenant`] + [`ModelRegistry::adopt_if_newer`]).
    pub fn latest_valid(&self, tenant: &str) -> Option<(u64, PatternModel)> {
        self.scan_tenant(tenant, None).newest_valid
    }

    /// One full catalog pass against `registry`: every tenant directory is
    /// scanned, strictly-newer valid artifacts are compiled and adopted,
    /// and tenants with no valid artifact at all are declared (so
    /// `/readyz` reports them degraded). Never downgrades; never adopts an
    /// invalid artifact.
    pub fn sync(&self, registry: &ModelRegistry) -> SyncReport {
        crate::obs::catalog_scans().inc();
        let mut report = SyncReport::default();
        for tenant in self.tenant_names() {
            let floor = registry.current_version(&tenant);
            let scan = self.scan_tenant(&tenant, floor);
            report.rejected += scan.rejected;
            match scan.newest_valid {
                // Adopt the model decoded from the bytes the scan
                // validated: a writer replacing the file afterwards cannot
                // slip an unvalidated model in.
                Some((version, model)) => {
                    if let Adoption::Adopted { .. } =
                        registry.adopt_if_newer(&tenant, ServeModel::compile(model))
                    {
                        crate::obs::catalog_adoptions().inc();
                        report.adopted.push((tenant.clone(), version));
                    }
                }
                None if floor.is_none() => {
                    registry.declare(&tenant);
                    report.modelless.push(tenant.clone());
                }
                None => {}
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisemine_core::lattice::Border;
    use noisemine_core::miner::{FrequentPattern, MineOutcome, MineStats, Provenance};
    use noisemine_core::{Alphabet, CompatibilityMatrix, Pattern, Symbol};

    fn sample_model(version: u64) -> PatternModel {
        let alphabet = Alphabet::synthetic(4);
        let matrix = CompatibilityMatrix::uniform_noise(4, 0.1).unwrap();
        let outcome = MineOutcome {
            frequent: vec![FrequentPattern {
                pattern: Pattern::contiguous(&[Symbol(0), Symbol(1)]).unwrap(),
                match_estimate: 0.5,
                provenance: Provenance::Verified,
            }],
            border: Border::default(),
            symbol_match: vec![0.4; 4],
            stats: MineStats::default(),
        };
        PatternModel::from_outcome(&outcome, &alphabet, &matrix, 0.1, version)
    }

    fn tmp_catalog(name: &str) -> Catalog {
        let root =
            std::env::temp_dir().join(format!("noisemine-catalog-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        Catalog::new(root)
    }

    #[test]
    fn write_then_latest_valid_round_trips() {
        let cat = tmp_catalog("roundtrip");
        cat.write("t", &sample_model(7)).unwrap();
        cat.write("t", &sample_model(12)).unwrap();
        let (version, model) = cat.latest_valid("t").unwrap();
        assert_eq!(version, 12);
        assert_eq!(model.version, 12);
        assert_eq!(cat.versions("t"), vec![12, 7]);
        std::fs::remove_dir_all(cat.root()).ok();
    }

    #[test]
    fn garbage_and_tmp_files_are_invisible() {
        let cat = tmp_catalog("garbage");
        cat.write("t", &sample_model(3)).unwrap();
        let dir = cat.root().join("t");
        std::fs::write(dir.join("9.nmmodel.tmp"), b"half a write").unwrap();
        std::fs::write(dir.join("README.txt"), b"not a model").unwrap();
        std::fs::write(dir.join("007.nmmodel"), b"leading zeros").unwrap();
        std::fs::write(dir.join("x12.nmmodel"), b"not decimal").unwrap();
        assert_eq!(cat.versions("t"), vec![3]);
        assert_eq!(cat.latest_valid("t").unwrap().0, 3);
        std::fs::remove_dir_all(cat.root()).ok();
    }

    #[test]
    fn corrupt_newest_falls_back_to_last_good() {
        let cat = tmp_catalog("fallback");
        cat.write("t", &sample_model(5)).unwrap();
        cat.write("t", &sample_model(9)).unwrap();
        // Corrupt the newest artifact in place (torn write simulation).
        let newest = cat.model_path("t", 9);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&newest, bytes).unwrap();

        let scan = cat.scan_tenant("t", None);
        assert_eq!(scan.rejected, 1);
        assert_eq!(scan.newest_valid.as_ref().unwrap().0, 5);

        // And the registry path: v5 adopted, never the corrupt v9.
        let registry = ModelRegistry::new(0.0);
        let report = cat.sync(&registry);
        assert_eq!(report.adopted, vec![("t".to_string(), 5)]);
        assert_eq!(registry.current_version("t"), Some(5));
        std::fs::remove_dir_all(cat.root()).ok();
    }

    #[test]
    fn sync_never_downgrades_and_declares_modelless() {
        let cat = tmp_catalog("sync");
        let registry = ModelRegistry::new(0.0);
        registry.swap("t", ServeModel::compile(sample_model(20)));
        cat.write("t", &sample_model(10)).unwrap();
        // A tenant dir with only garbage.
        std::fs::create_dir_all(cat.root().join("empty")).unwrap();
        std::fs::write(cat.root().join("empty").join("1.nmmodel"), b"junk").unwrap();

        let report = cat.sync(&registry);
        assert!(report.adopted.is_empty(), "{report:?}");
        assert_eq!(registry.current_version("t"), Some(20));
        assert_eq!(report.modelless, vec!["empty".to_string()]);
        assert!(matches!(
            registry.lookup("empty"),
            crate::registry::TenantLookup::NoModel
        ));

        // A strictly newer artifact is adopted on the next pass.
        cat.write("t", &sample_model(21)).unwrap();
        let report = cat.sync(&registry);
        assert_eq!(report.adopted, vec![("t".to_string(), 21)]);
        assert_eq!(registry.current_version("t"), Some(21));
        std::fs::remove_dir_all(cat.root()).ok();
    }

    #[test]
    fn mislabeled_artifact_is_rejected() {
        let cat = tmp_catalog("mislabel");
        // A perfectly valid artifact written under the wrong version name.
        cat.write("t", &sample_model(4)).unwrap();
        let fake = cat.model_path("t", 99);
        std::fs::copy(cat.model_path("t", 4), &fake).unwrap();
        let scan = cat.scan_tenant("t", None);
        assert_eq!(scan.rejected, 1);
        assert_eq!(scan.newest_valid.unwrap().0, 4);
        std::fs::remove_dir_all(cat.root()).ok();
    }
}
