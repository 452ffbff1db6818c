//! Workspace discovery and the file-set walk.
//!
//! The `--workspace` scan covers `crates/**` (sources and manifests) plus
//! the top-level `tests/` and `examples/` trees. `shims/` is excluded by
//! design: the shims stand in for external crates and sit outside the
//! simulation's invariant boundary (the criterion shim, for instance, *is*
//! a wall-clock harness). `target/` and lint fixture directories are
//! skipped.

use crate::rules::{scan_manifest, scan_rust, FileClass, Finding};
use std::path::{Path, PathBuf};

/// A scan failure (I/O, missing root); distinct from rule findings.
#[derive(Debug)]
pub struct ScanError {
    /// What was being accessed.
    pub path: PathBuf,
    /// The underlying error.
    pub source: std::io::Error,
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for ScanError {}

/// Locates the workspace root: `$CARGO_MANIFEST_DIR/../..` when invoked via
/// `cargo run -p analysis`, else the nearest ancestor of the current
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_root() -> Result<PathBuf, ScanError> {
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        if let Some(root) = Path::new(&dir).parent().and_then(Path::parent) {
            if root.join("Cargo.toml").exists() {
                return Ok(root.to_path_buf());
            }
        }
    }
    let cwd = std::env::current_dir().map_err(|source| ScanError {
        path: PathBuf::from("."),
        source,
    })?;
    let mut dir = cwd.as_path();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            let text = std::fs::read_to_string(&manifest).unwrap_or_default();
            if text.contains("[workspace]") {
                return Ok(dir.to_path_buf());
            }
        }
        match dir.parent() {
            Some(p) => dir = p,
            None => {
                return Err(ScanError {
                    path: cwd,
                    source: std::io::Error::new(
                        std::io::ErrorKind::NotFound,
                        "no workspace Cargo.toml in any ancestor directory",
                    ),
                })
            }
        }
    }
}

/// Scans the whole workspace under `root`, returning findings sorted by
/// path/line.
pub fn scan_workspace(root: &Path) -> Result<Vec<Finding>, ScanError> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut findings = Vec::new();
    for path in files {
        let rel = relative(&path, root);
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name == "Cargo.toml" {
            if rel.starts_with("crates/") {
                findings.extend(scan_manifest(&rel, &read(&path)?));
            }
        } else if let Some(class) = FileClass::classify(&rel) {
            findings.extend(scan_rust(&rel, class, &read(&path)?));
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// Scans one explicitly-named file (scratch/fixture mode): `.toml` files get
/// the manifest rule, `.rs` files get every token rule.
pub fn scan_path(path: &Path) -> Result<Vec<Finding>, ScanError> {
    let display = path.display().to_string();
    let src = read(path)?;
    if display.ends_with(".toml") {
        Ok(scan_manifest(&display, &src))
    } else {
        Ok(scan_rust(&display, FileClass::Library, &src))
    }
}

fn read(path: &Path) -> Result<String, ScanError> {
    std::fs::read_to_string(path).map_err(|source| ScanError {
        path: path.to_path_buf(),
        source,
    })
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), ScanError> {
    let entries = std::fs::read_dir(dir).map_err(|source| ScanError {
        path: dir.to_path_buf(),
        source,
    })?;
    for entry in entries {
        let entry = entry.map_err(|source| ScanError {
            path: dir.to_path_buf(),
            source,
        })?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
