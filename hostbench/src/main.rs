//! `hostbench`: the host cost of simulating SNAP/LE fleets.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <grid_sleepers|serve_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, a `record` line (host fingerprint,
//! exact simulated counters, every metric) and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A traced run also writes a Chrome trace to
//! `hostbench/out/trace-<workload>-<seed>.json`. See `README.md`.

mod fingerprint;
mod gen;
mod grid;
mod report;
mod serve;
mod stats;
mod trace;

use fingerprint::SHIPPED_SEED;
use std::process::ExitCode;
use std::time::Instant;

/// Every workload, in `BENCHMARK.json`'s order.
pub const WORKLOADS: [&str; 2] = ["grid_sleepers", "serve_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag}: missing value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => traced = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    println!(
        "hostbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.traced as u8
    );
    let serve = args.workload == "serve_mix";
    let mut out = if serve {
        serve::measure(args.seed, args.seconds, args.traced, origin)
    } else {
        grid::measure(args.seed, args.seconds, args.traced, origin)
    };
    // The shipped seed's fingerprint: this run's own, or one more
    // untimed pass over the shipped seed's inputs.
    let shipped = match out.fingerprint() {
        Some(fp) if args.seed == SHIPPED_SEED => fp,
        _ if serve => serve::fingerprint(SHIPPED_SEED),
        _ => grid::fingerprint(SHIPPED_SEED),
    };
    let ok = out.check_pin(&shipped);
    out.notes.push(format!(
        "pinned fingerprint for seed {SHIPPED_SEED}: {}",
        if ok { "match" } else { "MISMATCH" }
    ));
    if args.traced {
        write_trace(&mut out, &args);
        out.layer(
            "fail_ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
    }
    for unknown in out.unknown_layers() {
        out.check(false, || {
            format!("metric {unknown} is not in the per-layer list")
        });
    }
    for line in out.lines(args.traced) {
        println!("{line}");
    }
    println!(
        "record {}",
        out.record(args.seed, args.traced, report::host())
            .to_compact()
    );
    println!("{}", out.result(args.traced).to_compact());
    ExitCode::SUCCESS
}

/// Write the traced run's spans as a Chrome trace and check that the
/// repository's validator accepts it.
fn write_trace(out: &mut report::Outcome, args: &Args) {
    let tracers: Vec<&trace::Tracer> = out.tracers().iter().collect();
    let spans: usize = tracers.iter().map(|t| t.spans().len()).sum();
    let json = trace::chrome(&format!("hostbench {}", args.workload), &tracers);
    out.layer("trace.spans", spans as f64);
    let valid = snap_telemetry::validate_chrome_trace(&json);
    out.check(valid.is_ok(), || {
        format!("trace does not validate: {valid:?}")
    });
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json));
    out.check(written.is_ok(), || {
        format!("writing {}: {written:?}", path.display())
    });
    out.notes
        .push(format!("trace: {} ({spans} spans)", path.display()));
}
