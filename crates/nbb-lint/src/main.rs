//! CLI for the repo lint pass: `cargo run -p nbb-lint [workspace-root]`.
//!
//! Walks the workspace (default: the current directory, which is the
//! workspace root under `cargo run`), applies the rules documented in
//! the library crate, prints one `file:line: [rule] message` diagnostic
//! per finding, and exits non-zero if anything was found.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args().nth(1).map(PathBuf::from).unwrap_or_else(|| PathBuf::from("."));
    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "nbb-lint: {} does not look like a workspace root (no Cargo.toml)",
            root.display()
        );
        return ExitCode::from(2);
    }
    match nbb_lint::scan_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("nbb-lint: clean (rules L1-L7)");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("nbb-lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("nbb-lint: scan failed: {e}");
            ExitCode::from(2)
        }
    }
}
