//! Stamps the build with an identity of the measured source: the git
//! commit when the checkout has one, else an FNV-1a digest of every
//! workspace source file and manifest (a checkout without git history
//! still gets a stable, content-derived id).

use std::path::{Path, PathBuf};

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name().to_string_lossy().into_owned();
        if p.is_dir() {
            if name != "target" && !name.starts_with('.') {
                walk(&p, out);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
            out.push(p);
        }
    }
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(Path::new(env!("CARGO_MANIFEST_DIR")), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let commit = root
        .join(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .current_dir(&root)
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|c| !c.is_empty());
    let id = match commit {
        Some(c) => format!("git-{c}+src-{h:016x}"),
        None => format!("src-{h:016x}"),
    };
    println!("cargo:rustc-env=PERFBENCH_SOURCE={id}");
    println!("cargo:rerun-if-changed=../crates");
    println!("cargo:rerun-if-changed=../Cargo.lock");
    println!("cargo:rerun-if-changed=src");
}
