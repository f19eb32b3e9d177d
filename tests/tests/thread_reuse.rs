//! Pipeline threads are reused across calls: `process_parallel` runs its
//! workers and merger on a process-wide pool, so after a warm-up call the
//! threads stay parked between calls, and a long run of sequential calls
//! neither starts nor retires a single OS thread.
//!
//! One test in its own binary, so no other test's threads show up in
//! `/proc/self/task`.

#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::fs;

use mflow_runtime::{generate_frames, process_parallel, process_serial, RuntimeConfig, Transport};

/// The kernel thread ids of this process.
fn tasks() -> BTreeSet<u64> {
    fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .map(|e| {
            let name = e.expect("task entry").file_name();
            name.to_string_lossy().parse().expect("numeric thread id")
        })
        .collect()
}

#[test]
fn sequential_calls_reuse_the_same_threads() {
    let frames = generate_frames(2_048, 64);
    let serial = process_serial(&frames);
    let cfg = RuntimeConfig::default();
    let call = |i: usize| {
        let transport = [Transport::Mpsc, Transport::Ring][i % 2];
        let out = process_parallel(&frames, &RuntimeConfig { transport, ..cfg }).unwrap();
        assert_eq!(out.digests, serial.digests, "call {i} over {transport:?}");
    };

    let before = tasks();
    call(0);
    call(1);
    let warm = tasks();
    // The workers and the merger stay parked between calls.
    let pipeline_threads = cfg.workers + 1;
    let parked = warm.len().saturating_sub(before.len());
    assert!(
        parked >= pipeline_threads,
        "{parked} threads stayed after the warm-up, want at least {pipeline_threads}"
    );

    for i in 0..400 {
        call(i);
    }
    let after = tasks();
    assert_eq!(
        after, warm,
        "400 sequential calls started or retired threads"
    );
}
