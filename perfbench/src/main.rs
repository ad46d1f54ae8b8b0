//! End-to-end and per-layer benchmark of the CLAN crates.
//!
//! `clan-perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! A run repeats whole rounds of one workload until `S` seconds of
//! rounds have been measured. Each round builds its inputs from
//! `(seed, round)`: the NEAT config, the initial population and the eval
//! pool or loopback agents, then runs a fixed generation (or eval)
//! budget through the public `clan-core` API and checks its outputs.
//!
//! `--trace 0` prints the end-to-end metrics, measured without any
//! benchmark spans. `--trace 1` replays every round with spans around
//! the public calls of each layer and prints the per-layer metrics,
//! the share of the program's own wall time no span covers, and the
//! spans' own overhead (the replay with spans on vs off).
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`. The line before it is a record of
//! the run (workload, seed, rounds, host CPUs, commit). A failed output
//! check prints `"correct": false` and exits 1.

mod probe;
mod spans;
mod stream;
mod sync;

use std::fmt::Write as _;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back for printing.
pub struct Outcome {
    pub rounds: usize,
    /// Genome evaluations submitted (cache hits included).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Output checks that did not hold, one line each.
    pub check_failures: Vec<String>,
}

/// Builds per round whose set-up time is measured: `setup_s` is the
/// median over every build of the run.
pub const SETUP_REPS: usize = 5;

/// The per-round input seed: distinct, reproducible master seeds for
/// the rounds of one run.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    clan_neat::rng::derive_seed(seed, &[0xBE4C_u64, round as u64])
}

const WORKLOADS: [&str; 3] = [
    "airraid-threads",
    "lander-tcp-dcs",
    "mountaincar-async-traced",
];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("clan-perfbench: {e}");
            eprintln!(
                "usage: clan-perfbench --workload W --seed N --seconds S --trace 0|1 \
                 (W: {})",
                WORKLOADS.join(", ")
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "airraid-threads" => sync::run(sync::Kind::AirRaidThreads, &args),
        "lander-tcp-dcs" => sync::run(sync::Kind::LanderTcpDcs, &args),
        _ => stream::run(&args),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("clan-perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            let failure = format!("metric {} is not finite ({})", m.name, m.value);
            outcome.check_failures.push(failure);
        }
    }
    for f in &outcome.check_failures {
        eprintln!("clan-perfbench: check failed: {f}");
    }
    let correct = outcome.check_failures.is_empty();
    println!("{}", record_line(&args, &outcome));
    println!("{}", result_line(correct, &outcome));
    if !correct {
        std::process::exit(1);
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

/// Finite numbers print with full precision; a non-finite value (a
/// failed check, see `main`) prints as 0 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn result_line(correct: bool, o: &Outcome) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted,
        o.failed,
        metrics_json(&o.metrics)
    )
}

fn record_line(args: &Args, o: &Outcome) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let commit = std::env::var("CLAN_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"rounds\": {}, \"host_cpus\": {cpus}, \"commit\": \"{}\", \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {}}}}}",
        args.workload,
        args.seed,
        json_number(args.seconds),
        args.trace,
        o.rounds,
        commit.replace(['"', '\\'], ""),
        o.attempted,
        o.failed,
        metrics_json(&o.metrics)
    )
}

/// Process-wide resource usage from `getrusage(RUSAGE_SELF)`: user +
/// system CPU seconds of every thread (pool workers and in-process
/// agents included) and the peak resident set in MiB.
pub fn rusage() -> (f64, f64) {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable struct laid out like the C
    // `struct rusage` of 64-bit Linux (two timevals, then 14 longs), and
    // RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    (
        secs(&ru.utime) + secs(&ru.stime),
        ru.maxrss_kib as f64 / 1024.0,
    )
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest order statistic with at least ten samples above it.
pub fn tail(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s.get(s.len().saturating_sub(11)).copied().unwrap_or(0.0)
}

/// Error text of any displayable error.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Safe ratio: 0 when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The six end-to-end metrics in their fixed reporting order.
pub fn end_to_end(
    setup_s: f64,
    evals_per_s: f64,
    gen_ms_p50: f64,
    gen_ms_tail: f64,
    cpu_ms_per_eval: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", setup_s, "s"),
        m("evals_per_s", evals_per_s, "1/s"),
        m("gen_ms_p50", gen_ms_p50, "ms"),
        m("gen_ms_tail", gen_ms_tail, "ms"),
        m("cpu_ms_per_eval", cpu_ms_per_eval, "ms"),
        m("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// Human-readable span table and per-layer metrics on standard error.
pub fn print_layer_table(
    workload: &str,
    spans: &spans::Spans,
    wall_s: f64,
    layers: &spans::Layers,
) {
    eprintln!(
        "{workload}: program wall {:.3} s (shares are of it)",
        wall_s
    );
    eprintln!("  {:<24} {:>10} {:>8}", "span", "seconds", "share");
    for (name, secs) in spans.rows() {
        eprintln!(
            "  {:<24} {:>10.4} {:>7.1}%",
            name,
            secs,
            100.0 * ratio(secs, wall_s)
        );
    }
    eprintln!(
        "  {:<24} {:>10.4} {:>7.1}%",
        "(unattributed)",
        wall_s - spans.covered(),
        layers.run_unattributed_pct
    );
    for m in layers.metrics() {
        eprintln!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
}
