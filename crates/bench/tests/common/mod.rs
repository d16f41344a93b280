//! Golden-file helpers shared by the test binaries that regenerate
//! committed `results/` artifacts.

use std::io;
use std::path::{Path, PathBuf};

/// Writes `names` through one `write` into a fresh temp dir and compares
/// each with `results/<name>`; a mismatch names the first differing line
/// and the `repro` command that regenerates the file.
pub fn assert_golden(
    names: &[&str],
    repro_args: &str,
    write: impl FnOnce(&Path) -> io::Result<()>,
) {
    for (name, fresh) in names.iter().zip(fresh(names, write)) {
        assert_same(name, repro_args, &committed(name), &fresh);
    }
}

/// `names` as one `write` writes them into a fresh temp dir.
pub fn fresh(names: &[&str], write: impl FnOnce(&Path) -> io::Result<()>) -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("qens_golden_{}_{}", std::process::id(), names[0]));
    write(&dir).expect("write fresh artifact");
    let fresh = names
        .iter()
        .map(|name| std::fs::read_to_string(dir.join(name)).expect("read fresh artifact"))
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    fresh
}

/// `results/<name>` as committed.
pub fn committed(name: &str) -> String {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "results", name]
        .iter()
        .collect();
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

pub fn assert_same(name: &str, repro_args: &str, committed: &str, fresh: &str) {
    if fresh == committed {
        return;
    }
    let (old, new): (Vec<&str>, Vec<&str>) = (committed.lines().collect(), fresh.lines().collect());
    let line = (0..old.len().max(new.len()))
        .find(|&i| old.get(i) != new.get(i))
        .unwrap_or(old.len());
    let at = |lines: &[&str]| {
        lines
            .get(line)
            .copied()
            .unwrap_or("<end of file>")
            .to_string()
    };
    panic!(
        "results/{name} is stale: first difference at line {}\n  committed: {}\n  fresh:     {}\n\
         regenerate it with `cargo run --release -p bench --bin repro -- {repro_args}`",
        line + 1,
        at(&old),
        at(&new),
    );
}
