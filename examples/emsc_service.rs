//! The capture daemon, CLI-fronted: supervise a fleet of sensors with
//! restart policies, watchdogs, quarantine and deterministic fault
//! injection.
//!
//! ```text
//! # E5 soak fleet (ten sensors, escalating fault schedule):
//! cargo run --release -p emsc-examples --example emsc_service
//! cargo run --release -p emsc-examples --example emsc_service -- --seed 7 --events
//!
//! # Supervise a spooled rtl_sdr u8 recording with a blind receiver:
//! cargo run --release -p emsc-examples --example emsc_service -- \
//!     --spool capture.bin --sample-rate 2400000 --center-freq 1455000
//! ```
//!
//! Everything is deterministic: the soak's faults, restarts and
//! backoff jitter derive from `--seed`, so two invocations with the
//! same arguments print byte-identical output at any `EMSC_THREADS`.
//! A flag the chosen mode does not take, or a value flag with nothing
//! after it, prints the usage to stderr and exits with status 2.
//! `--chunk` may be at most the 65 536-sample session buffer: the
//! registry can never admit a larger chunk, so the sensor is
//! quarantined at its first one.

use emsc_covert::rx::RxConfig;
use emsc_service::{
    render_soak_rows, soak, FaultPlan, SensorKind, SensorPolicy, SensorSpec, ServiceConfig,
    SpoolSource, Supervisor,
};

const USAGE: &str = "usage: emsc_service [--seed N] [--events]
       emsc_service --spool FILE [--seed N] [--sample-rate HZ] [--center-freq HZ]
                    [--switching-freq HZ] [--bit-period S] [--chunk SAMPLES] [--ticks N]
--chunk is at most 65536, the session buffer: a larger chunk quarantines the sensor";

/// Every flag that takes a value. All but `--seed` belong to spool
/// mode.
const VALUE_FLAGS: [&str; 8] = [
    "--seed",
    "--spool",
    "--sample-rate",
    "--center-freq",
    "--switching-freq",
    "--bit-period",
    "--chunk",
    "--ticks",
];

/// The command line, read in one pass.
struct Args {
    /// Each value flag given, with its value, in command-line order.
    values: Vec<(&'static str, String)>,
    /// Whether `--events` was given (soak mode only).
    events: bool,
}

impl Args {
    /// Reads `args`, or prints the usage and exits 2 on a flag this
    /// mode does not take or a value flag with nothing after it.
    fn parse(args: &[String]) -> Args {
        let mut parsed = Args { values: Vec::new(), events: false };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if arg == "--events" {
                parsed.events = true;
                continue;
            }
            match (VALUE_FLAGS.iter().find(|f| **f == arg), rest.next()) {
                (Some(name), Some(value)) => parsed.values.push((name, value.clone())),
                _ => usage(),
            }
        }
        let spool = parsed.value("--spool").is_some();
        let soak_only = parsed.values.iter().all(|(name, _)| *name == "--seed");
        if (spool && parsed.events) || (!spool && !soak_only) {
            usage();
        }
        parsed
    }

    /// The value of the first `name` given, if any.
    fn value(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.value(name).map(|v| v.parse().unwrap_or_else(|_| die(name))).unwrap_or(default)
    }
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn die(name: &str) -> ! {
    eprintln!("invalid value for {name}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&args);
    let seed = args.parse_or("--seed", 2020);

    if let Some(path) = args.value("--spool") {
        supervise_spool(&args, seed, path);
        return;
    }

    // Default mode: the E5 soak fleet.
    let outcome = soak(seed);
    print!("{}", render_soak_rows(&outcome));
    if args.events {
        println!("\nsupervision event log:");
        for e in &outcome.report.events {
            println!("  t={:<5} sensor {:<2} {}", e.tick, e.sensor, e.what);
        }
    } else {
        println!("(run with --events for the full supervision log)");
    }
}

/// Supervises a single spooled `rtl_sdr` interleaved-u8 recording with
/// a blind covert receiver (bit period estimated from the capture).
fn supervise_spool(args: &Args, seed: u64, path: &str) {
    let sample_rate = args.parse_or("--sample-rate", 2.4e6);
    let center_freq = args.parse_or("--center-freq", 1.455e6);
    let switching_freq = args.parse_or("--switching-freq", 970e3);
    let bit_period = args.parse_or("--bit-period", 1e-3);
    let chunk = args.parse_or("--chunk", 4096);
    let max_ticks = args.parse_or("--ticks", 100_000);

    let source =
        match SpoolSource::from_file(std::path::Path::new(path), sample_rate, center_freq, chunk) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot open spool {path}: {e}");
                std::process::exit(1);
            }
        };

    let config = ServiceConfig { base_seed: seed, max_ticks, ..ServiceConfig::default() };
    let mut daemon = Supervisor::new(config, FaultPlan::none());
    daemon.add_sensor(SensorSpec {
        label: path.to_string(),
        kind: SensorKind::BlindCovert(RxConfig::new(switching_freq, bit_period)),
        source: Box::new(source),
        policy: SensorPolicy::default(),
    });
    let report = daemon.run();

    for s in &report.sensors {
        println!(
            "{}: state={} uptime {}/{} ticks, {} restart(s), {} session(s), \
             {} samples, {} bits decoded{}",
            s.label,
            s.state.label(),
            s.uptime_ticks,
            s.active_ticks,
            s.restarts,
            s.sessions.len(),
            s.samples_processed,
            s.decoded_bits,
            s.last_error.map(|e| format!(", last error: {e}")).unwrap_or_default(),
        );
    }
    for e in &report.events {
        println!("  t={:<5} {}", e.tick, e.what);
    }
}
