//! Records how the ledger binary was compiled, for the provenance block.

use std::process::Command;

fn main() {
    // Cargo hands build scripts the effective flags (RUSTFLAGS or the
    // `build.rustflags` of `.cargo/config.toml`), unit-separator joined.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    println!("cargo:rustc-env=LEDGER_RUSTFLAGS={flags}");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=LEDGER_RUSTC={version}");
    println!("cargo:rerun-if-env-changed=RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}
