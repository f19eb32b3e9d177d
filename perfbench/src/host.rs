//! What a result is measured on (cores, build, commit, compiler), and the
//! process CPU clock the per-layer pass reconciles against.

use std::fs;
use std::process::Command;
use std::time::Duration;

/// The host and build a result belongs to.
pub struct Host {
    pub cores: usize,
    pub profile: &'static str,
    pub commit: String,
    pub rustc: String,
}

impl Host {
    pub fn probe() -> Self {
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: commit(),
            rustc: rustc_version(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"host_cores\": {}, \"profile\": \"{}\", \"commit\": \"{}\", \"rustc\": \"{}\"}}",
            self.cores,
            self.profile,
            json_escape(&self.commit),
            json_escape(&self.rustc)
        )
    }
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` in an exported tree.
fn commit() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// User plus system CPU time of the whole process so far, from
/// `/proc/self/stat`. The kernel folds the time of exited threads into
/// these fields, so the pipeline's joined worker and merger threads are
/// included. Resolution is one clock tick.
pub fn process_cpu() -> Duration {
    let stat = fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_nanos(ticks * (1_000_000_000 / clock_ticks_per_second()))
}

/// Host-wide (steal, total) CPU ticks from the first line of
/// `/proc/stat`: time the hypervisor gave this machine's virtual CPUs to
/// someone else. Neighbours' load is the main source of run-to-run drift
/// on a shared host, so each pass reports its steal share.
pub fn host_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// `AT_CLKTCK` from the process's auxiliary vector (100 on Linux unless
/// the kernel says otherwise).
fn clock_ticks_per_second() -> u64 {
    const AT_CLKTCK: u64 = 17;
    let auxv = fs::read("/proc/self/auxv").unwrap_or_default();
    auxv.chunks_exact(16)
        .map(|kv| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&kv[..8]), word(&kv[8..]))
        })
        .find(|&(k, _)| k == AT_CLKTCK)
        .map_or(100, |(_, v)| v.max(1))
}
