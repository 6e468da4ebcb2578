//! The workspace builds with an empty crate registry: every dependency in
//! every manifest is an `lmpi-*` path crate, or a `.workspace = true`
//! reference to one. A registry crate added anywhere fails here, before it
//! fails in the offline container where nothing can be fetched.

use std::fs;
use std::path::{Path, PathBuf};

/// The root manifest and one per crate under `crates/`. `benchmark/` is a
/// workspace of its own and is not a member of this one.
fn manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let manifest = entry.expect("directory entry").path().join("Cargo.toml");
        if manifest.is_file() {
            found.push(manifest);
        }
    }
    found
}

/// Whether `line`, inside a dependency table, names a workspace crate by
/// path or by reference to the root's `[workspace.dependencies]`.
fn is_local(line: &str) -> bool {
    let Some((name, spec)) = line.split_once('=') else {
        return false;
    };
    let (name, spec) = (name.trim(), spec.trim());
    let by_reference = name.ends_with(".workspace") && spec == "true";
    let by_path = spec.starts_with("{ path = \"") && spec.ends_with("\" }");
    name.starts_with("lmpi-") && (by_reference || by_path)
}

#[test]
fn every_dependency_is_a_workspace_path_crate() {
    let manifests = manifests();
    assert!(manifests.len() >= 8, "root and seven crates: {manifests:?}");
    let mut offenders = Vec::new();
    for manifest in &manifests {
        let text = fs::read_to_string(manifest).expect("manifest is readable");
        let mut in_deps = false;
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(table) = line.strip_prefix('[') {
                let table = table.trim_end_matches(']');
                // `[dependencies.foo]` and `[patch.*]` have no place here
                // at all; `[*dependencies]` tables are checked line by line.
                if table.contains("dependencies.") || table.starts_with("patch") {
                    offenders.push(format!("{}: [{table}]", manifest.display()));
                }
                in_deps = table.ends_with("dependencies");
            } else if in_deps && !is_local(line) {
                offenders.push(format!("{}: {line}", manifest.display()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "dependencies that are not lmpi-* path crates:\n{}",
        offenders.join("\n")
    );
}
