//! The `postopc` command line refuses an oversized design spec as a
//! usage error (exit 2) at once, before it generates anything.

use std::process::Command;

#[test]
fn an_oversized_design_spec_is_a_usage_error() {
    for spec in [
        "mult:100000",
        "farm:4294967296x4294967296",
        "chain:10000000000",
        "rca:2049638230412172403",
        "regfarm:100x18446744073709551615",
        "rand:20001",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_postopc"))
            .args(["drc", "--design", spec])
            .output()
            .expect("postopc starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
        assert!(stderr.contains("more than 20000 gates"), "{spec}: {stderr}");
        assert!(stderr.contains("usage:"), "{spec}: {stderr}");
    }
}
