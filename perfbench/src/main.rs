//! The repository benchmark: runs one overlay-flow workload against
//! `mflow-runtime`, checks every output, and prints every metric by name
//! with its unit. The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload udp-64b|tcp-mss|rr-msg|all --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced pass that yields the per-layer
//! metrics. `--workload all` runs both passes of every workload.

mod host;
mod layers;
mod measure;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mflow_metrics::CountingAlloc;

use host::{json_escape, Host};
use measure::{median, quantile, Metric, Tally};
use workload::Spec;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

const USAGE: &str = "usage: perfbench --workload <udp-64b|tcp-mss|rr-msg|all> --seed <n> \
                     --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let specs: Vec<Spec> = if args.workload == "all" {
        workload::all().to_vec()
    } else if let Some(spec) = workload::by_name(&args.workload) {
        vec![spec]
    } else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let passes: &[bool] = if args.workload == "all" {
        &[false, true]
    } else if args.trace {
        &[true]
    } else {
        &[false]
    };
    let host = Host::probe();
    let mut tally = Tally::default();
    let mut values = Vec::new();
    for spec in &specs {
        for &traced in passes {
            let (t, mut v) = run(spec, &args, traced, &host);
            tally.absorb(t);
            if specs.len() > 1 {
                for m in &mut v {
                    m.name = format!("{}/{}", spec.name, m.name);
                }
            }
            values.extend(v);
        }
    }
    println!(
        "checks: attempted {} failed {}{}",
        tally.attempted,
        tally.failed,
        if tally.failed == 0 {
            " (all outputs correct)"
        } else {
            ""
        }
    );
    let mut metrics = String::new();
    for (i, v) in values.iter().enumerate() {
        let value = if v.value.is_finite() { v.value } else { 0.0 };
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            v.name,
            v.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    );
    ExitCode::SUCCESS
}

/// One pass of one workload: set-up, then the untraced end-to-end
/// measurement or the traced per-layer one. Prints its metrics as it
/// goes and returns them.
fn run(spec: &Spec, args: &Args, traced: bool, host: &Host) -> (Tally, Vec<Metric>) {
    let threads = spec.pipeline_threads();
    println!(
        "== {} seed {} seconds {} trace {}",
        spec.name, args.seed, args.seconds, traced as u8
    );
    println!(
        "host: {} pipeline_threads {threads} (dispatcher + {} workers + merger) on host_cores {} \
         = {:.2} threads/core; traffic generated in memory, one closed-loop client",
        host.to_json(),
        spec.cfg.workers,
        host.cores,
        threads as f64 / host.cores as f64
    );

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(workload::setup(spec, args.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");

    let (steal0, total0) = host::host_ticks();
    let mut tally = Tally::default();
    let metrics = if traced {
        let report = layers::measure(
            &inputs,
            &spec.cfg,
            args.seconds,
            args.seed,
            host.cores,
            &mut tally,
        );
        for line in &report.lines {
            println!("{line}");
        }
        write_trace(spec, args, host, &report.tracer);
        report.metrics
    } else {
        let e = measure::end_to_end(
            &inputs,
            &spec.cfg,
            Duration::from_secs_f64(args.seconds),
            &mut tally,
        );
        let (blocks, par, ser) = (&e.blocks, e.steady(|b| b.parallel), e.steady(|b| b.serial));
        let of = |v: Vec<f64>| median(&v);
        let call_us: Vec<f64> = par.iter().flat_map(|b| b.call_us.iter().copied()).collect();
        let calls = call_us.len();
        let kept = format!("median of {} of {} blocks", par.len(), blocks.len());
        println!(
            "host steal filter: parallel timings from {} of {} blocks, serial from {}; \
             the rest ran within 50 ms before the host's steal counter advanced",
            par.len(),
            blocks.len(),
            ser.len()
        );
        println!(
            "latency tail: p99 {:.1} us ({} of {calls} beyond), p99.9 {:.1} us ({} beyond)",
            quantile(&call_us, 0.99),
            calls / 100,
            quantile(&call_us, 0.999),
            calls / 1000
        );
        vec![
            Metric::new(
                "mpps",
                of(par.iter().map(|b| b.mpps).collect()),
                "Mpps",
                &kept,
            ),
            Metric::new(
                "goodput_gbps",
                of(par.iter().map(|b| b.gbps).collect()),
                "Gbps",
                &kept,
            ),
            Metric::new(
                "serial_mpps",
                of(ser.iter().map(|b| b.serial_mpps).collect()),
                "Mpps",
                &format!("median of {} of {} blocks", ser.len(), blocks.len()),
            ),
            Metric::new(
                "msg_latency_us_p50",
                median(&call_us),
                "us",
                &format!("n={calls} calls"),
            ),
            Metric::new(
                "msg_latency_us_p90",
                quantile(&call_us, 0.90),
                "us",
                &format!("n={calls} calls, {} beyond", calls / 10),
            ),
            Metric::new(
                "setup_s",
                median(&setup_s),
                "s",
                &format!("median of {SETUP_REPS} set-ups"),
            ),
        ]
    };
    for m in &metrics {
        println!("{} {:.4} {}  [{}]", m.name, m.value, m.unit, m.note);
    }
    let (steal1, total1) = host::host_ticks();
    println!(
        "host steal: {:.2}% of host CPU time during the pass",
        100.0
            * measure::ratio(
                steal1.saturating_sub(steal0) as f64,
                total1.saturating_sub(total0) as f64
            )
    );
    (tally, metrics)
}

/// Writes the traced pass's spans, in memory until now, next to the
/// benchmark's sources.
fn write_trace(spec: &Spec, args: &Args, host: &Host, tracer: &trace::Tracer) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
    let path = format!("{dir}/{}-seed{}.json", spec.name, args.seed);
    let header = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"host\": {}",
        json_escape(spec.name),
        args.seed,
        host.to_json()
    );
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json(&header)));
    match written {
        Ok(()) => println!("trace: {} spans written to {path}", tracer.spans.len()),
        Err(e) => eprintln!("trace: could not write {path}: {e}"),
    }
}
