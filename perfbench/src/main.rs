//! perfbench: one repetition of one workload city of the PeerHood
//! reproduction, timed end to end or (with `--trace 1`) layer by layer.
//!
//! ```text
//! perfbench --seed N --city C --trace 0|1 --param key=value ...
//! ```
//!
//! `run.py` is the entry point: it builds this binary and runs it once per
//! repetition, each in a fresh process, passing the workload's parameters
//! from `workloads.json`; it aggregates the repetitions and checks their
//! digests. A run seed names several cities; city 0 is built from the seed
//! itself.
//!
//! A repetition builds the city and runs the warm-up horizon (together:
//! set-up), then runs the measured horizon one simulated second at a time.
//! With `--trace 1` every agent is wrapped in a timing shell and the engine
//! profiler is on over the measured horizon. The binary prints one JSON
//! line: set-up and measured times, the slice times, the peak RSS, the run
//! digest, the simulated counts that must repeat exactly, and (traced) the
//! per-layer metrics.

mod adapter;
mod digest;
mod spec;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use spec::Spec;

struct Args {
    seed: u64,
    city: u64,
    trace: bool,
    spec: Spec,
}

fn parse_args() -> Result<Args, String> {
    let (mut seed, mut city, mut trace) = (None, 0, None);
    let mut params = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?} is not {what}");
        match flag.as_str() {
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--city" => city = value.parse::<u64>().map_err(|_| bad("a city index"))?,
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--param" => params.push(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        seed: seed.ok_or("--seed is required")?,
        city,
        trace: trace.ok_or("--trace is required")?,
        spec: Spec::parse(&params)?,
    })
}

/// World seed of a run seed's `city`-th city: city 0 uses the run seed.
fn city_seed(seed: u64, city: u64) -> u64 {
    seed ^ city.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_list<T>(items: impl IntoIterator<Item = T>, f: impl Fn(T) -> String) -> String {
    items.into_iter().map(f).collect::<Vec<_>>().join(", ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = &args.spec;

    let t0 = Instant::now();
    let mut world = adapter::build(spec, city_seed(args.seed, args.city), args.trace);
    world.run_for_secs(spec.warmup_s);
    let setup_s = t0.elapsed().as_secs_f64();
    let before = world.counts();
    if args.trace {
        world.start_trace();
    }
    let mut slices_ms = Vec::with_capacity(spec.horizon_s as usize);
    let measure = Instant::now();
    for _ in 0..spec.horizon_s {
        let t = Instant::now();
        world.run_for_secs(1);
        slices_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let wall_ns = measure.elapsed().as_nanos() as u64;
    let peak_rss_mb = peak_rss_mb();

    let counts = world.counts().since(&before);
    let [pings_sent, pings_received] = world.pings();
    // Everything simulated is deterministic per city seed and must repeat
    // exactly, traced or not.
    let mut exact = vec![
        pings_sent,
        pings_received,
        counts.connect_attempts,
        counts.connect_failures,
    ];
    let mut layers = String::new();
    if args.trace {
        let sample = world.layer_sample(counts);
        exact.extend(trace::exact_counts(&sample));
        layers = json_list(trace::layer_metrics(&sample, wall_ns), |(name, v)| {
            format!("\"{name}\": {}", json_number(v))
        });
    }
    println!(
        "{{\"digest\": \"{:016x}\", \"setup_s\": {}, \"wall_ms\": {}, \"peak_rss_mb\": {}, \"slices_ms\": [{}], \"exact\": [{}], \"layers\": {{{layers}}}}}",
        world.digest(),
        json_number(setup_s),
        json_number(wall_ns as f64 / 1e6),
        json_number(peak_rss_mb),
        json_list(&slices_ms, |v| json_number(*v)),
        json_list(&exact, |v| v.to_string()),
    );
    ExitCode::SUCCESS
}
