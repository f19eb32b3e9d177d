//! `mflow-bench` — shared plumbing for the figure-regeneration binaries.
//!
//! Every `fig*` binary prints the same rows/series the paper's figure
//! reports and writes a machine-readable JSON copy under `results/`.
//! Set `MFLOW_QUICK=1` for shorter (CI-friendly) simulations.

use std::fs;
use std::path::PathBuf;

use mflow_metrics::SeriesSet;
use mflow_sim::MS;

/// Simulated duration and warmup for throughput-style runs, honouring
/// `MFLOW_QUICK`.
pub fn durations() -> (u64, u64) {
    if quick_mode() {
        (16 * MS, 5 * MS)
    } else {
        (60 * MS, 15 * MS)
    }
}

/// True when `MFLOW_QUICK` is set (shorter runs).
pub fn quick_mode() -> bool {
    std::env::var("MFLOW_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Directory JSON results are written to.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("MFLOW_RESULTS").unwrap_or_else(|_| "results".into());
    PathBuf::from(dir)
}

/// Saves a figure's series set as `results/<name>.json`.
pub fn save(name: &str, set: &SeriesSet) {
    let dir = results_dir();
    if fs::create_dir_all(&dir).is_err() {
        eprintln!("warning: could not create {}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match fs::write(&path, set.to_json()) {
        Ok(()) => println!("\n[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// The host fields a `BENCH_*.json` records next to its numbers, as
/// JSON members without braces: `host_cores`, the build `profile`, and
/// the `commit` measured (`git rev-parse HEAD`, suffixed `-dirty` when
/// the working tree has uncommitted changes; `unknown` outside a git
/// checkout).
pub fn host_record_json() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "\"host_cores\": {cores}, \"profile\": \"{profile}\", \"commit\": \"{}\"",
        commit()
    )
}

fn commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(head) if !head.is_empty() => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{head}-dirty")
            } else {
                head
            }
        }
        _ => "unknown".into(),
    }
}

/// Pretty Gbps cell.
pub fn gbps(x: f64) -> String {
    format!("{x:.2}")
}

/// Pretty microsecond cell from nanoseconds.
pub fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_are_sane() {
        let (d, w) = durations();
        assert!(w < d);
    }

    #[test]
    fn formatting() {
        assert_eq!(gbps(29.849), "29.85");
        assert_eq!(us(46_500), "46.5");
    }

    #[test]
    fn host_record_names_cores_profile_and_commit() {
        let rec = host_record_json();
        assert!(rec.starts_with("\"host_cores\": "), "{rec}");
        assert!(rec.contains("\"profile\": \""), "{rec}");
        assert!(rec.contains("\"commit\": \""), "{rec}");
    }
}
