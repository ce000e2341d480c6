//! Records the `rustc --version` of the compiler building this crate as
//! `ABP_BENCH_RUSTC`, so a bench report names the compiler that built
//! it rather than whichever `rustc` is on `PATH` when it runs.

use std::process::Command;

fn main() {
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|version| version.trim().to_owned())
        .filter(|version| !version.is_empty())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=ABP_BENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
