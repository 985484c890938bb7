//! Benchmark worker: one subcommand per step `run.py` times. Each step
//! runs in its own process, so peak memory is measured per step, and
//! prints one JSON object on stdout.
//!
//! ```text
//! perfbench setup  WORKLOAD SEED DIR [--trace]   write or generate the trace
//! perfbench run    WORKLOAD SEED DIR [--trace]   one timed run
//! perfbench layers WORKLOAD SEED DIR             decode/compile/SQL split
//! perfbench check  WORKLOAD SEED DIR             output checks
//! ```
//!
//! Exit status: 0 on success, 1 when a step fails or a check does not
//! hold, 2 on bad arguments.

mod timing;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use timing::DecideStats;
use workload::Workload;

const USAGE: &str = "usage: perfbench <setup|run|layers|check> WORKLOAD SEED DIR [--trace]";

/// A flat JSON object built field by field.
struct Json(String);

impl Json {
    fn new() -> Json {
        Json(String::new())
    }

    fn raw(&mut self, key: &str, value: &str) -> &mut Json {
        let sep = if self.0.is_empty() { "" } else { ", " };
        let _ = write!(self.0, "{sep}\"{key}\": {value}");
        self
    }

    fn num(&mut self, key: &str, value: f64) -> &mut Json {
        let value = if value.is_finite() { value } else { 0.0 };
        self.raw(key, &format!("{value:?}"))
    }

    fn secs(&mut self, key: &str, value: Duration) -> &mut Json {
        self.num(key, value.as_secs_f64())
    }

    fn int(&mut self, key: &str, value: u64) -> &mut Json {
        self.raw(key, &value.to_string())
    }

    fn text(&mut self, key: &str, value: &str) -> &mut Json {
        let mut quoted = String::from("\"");
        for c in value.chars() {
            match c {
                '"' => quoted.push_str("\\\""),
                '\\' => quoted.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(quoted, "\\u{:04x}", c as u32);
                }
                c => quoted.push(c),
            }
        }
        quoted.push('"');
        self.raw(key, &quoted)
    }

    fn finish(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    traced: bool,
}

fn parse_args(args: &[String]) -> Option<Args> {
    let [command, workload, seed, dir, rest @ ..] = args else {
        return None;
    };
    let traced = match rest {
        [] => false,
        [flag] if flag == "--trace" => true,
        _ => return None,
    };
    Some(Args {
        command: command.clone(),
        workload: Workload::parse(workload)?,
        seed: seed.parse().ok()?,
        dir: PathBuf::from(dir),
        traced,
    })
}

/// `raw` minus the clock's own cost over `calls` timed regions.
fn corrected(raw: Duration, calls: u64, clock: Duration) -> Duration {
    let bias = clock.saturating_mul(u32::try_from(calls).unwrap_or(u32::MAX));
    raw.saturating_sub(bias)
}

fn probe_fields(json: &mut Json, probe: &workload::Probe) {
    let clock = timing::empty_span();
    let stats = probe.stats();
    let mut total = DecideStats::default();
    for s in &stats {
        total.add(s);
    }
    json.num("clock_ns", clock.as_secs_f64() * 1e9)
        .secs("decide_raw_s", total.decide)
        .secs("decide_s", corrected(total.decide, total.decisions, clock))
        .secs("observe_raw_s", probe.observe)
        .secs(
            "observe_s",
            corrected(probe.observe, probe.observe_calls, clock),
        )
        .int("decisions", total.decisions)
        .int("hits", total.hits)
        .int("bypasses", total.bypasses)
        .int("loads", total.loads)
        .int("evictions", total.evictions)
        .int("useful_loads", total.useful_loads);
    let per_policy: Vec<String> = stats
        .iter()
        .map(|s| {
            format!(
                "{:?}",
                corrected(s.decide, s.decisions, clock).as_secs_f64()
            )
        })
        .collect();
    json.raw("policy_decide_s", &format!("[{}]", per_policy.join(", ")));
}

fn step(args: &Args) -> byc_types::Result<(String, bool)> {
    let mut json = Json::new();
    let (workload, seed, dir) = (args.workload, args.seed, args.dir.as_path());
    let mut ok = true;
    match args.command.as_str() {
        "setup" => {
            let s = workload::setup(workload, seed, dir, args.traced)?;
            let fractions: Vec<String> = workload
                .fractions()
                .iter()
                .map(|f| format!("{f:?}"))
                .collect();
            json.secs("setup_s", s.wall)
                .text("release", workload::RELEASE.label())
                .num("scale", workload::SCALE)
                .text("granularity", workload::GRANULARITY.label())
                .text("policy", workload.policy().label())
                .raw("cache_fractions", &format!("[{}]", fractions.join(", ")))
                .int("shards", workload.shards() as u64)
                .int("queries", s.queries as u64)
                .int("file_bytes", s.file_bytes)
                .secs("generate_s", s.generate)
                .secs("encode_write_s", s.encode_write);
        }
        "run" => {
            let run = workload::run(workload, seed, dir, args.traced)?;
            let replayed: usize = run.reports.iter().map(|r| r.queries).sum();
            let wan: u64 = run.reports.iter().map(|r| r.total_cost().raw()).sum();
            let conserves = run.reports.iter().all(|r| r.conserves_delivery());
            let sum = |f: fn(&byc_federation::CostReport) -> u64| -> u64 {
                run.reports.iter().map(f).sum()
            };
            let walls: Vec<String> = run
                .walls
                .iter()
                .map(|w| format!("{:?}", w.as_secs_f64()))
                .collect();
            json.raw("walls_s", &format!("[{}]", walls.join(", ")))
                .int("queries", replayed as u64)
                .int("expected_queries", run.expected_queries as u64)
                .raw("conserves", if conserves { "true" } else { "false" })
                .int("wan_bytes", wan)
                .int("sequence_bytes", sum(|r| r.sequence_cost.raw()))
                .int("retries", sum(|r| r.retries))
                .int("retried_bytes", sum(|r| r.retried_bytes.raw()))
                .int("degraded_queries", sum(|r| r.degraded_queries))
                .int("failed_queries", sum(|r| r.failed_queries))
                .secs("render_s", run.render)
                .int("event_log_bytes", run.event_log_bytes);
            if let Some(probe) = &run.probe {
                probe_fields(&mut json, probe);
            }
        }
        "layers" => {
            let l = workload::layers(workload, seed, dir)?;
            json.secs("decode_s", l.decode)
                .int("decode_bytes", l.decode_bytes)
                .int("decode_queries", l.decode_queries as u64)
                .secs("compile_s", l.compile)
                .int("slices", l.slices as u64)
                .int("compiled_queries", l.compiled_queries as u64)
                .secs("parse_s", l.parse)
                .secs("analyze_s", l.analyze)
                .secs("yield_s", l.estimate);
        }
        "check" => {
            let (failures, reports) = workload::check(workload, seed, dir)?;
            ok = failures.is_empty();
            let wan: Vec<String> = reports
                .iter()
                .map(|r| r.total_cost().raw().to_string())
                .collect();
            let quoted: Vec<String> = failures
                .iter()
                .map(|f| {
                    let mut one = Json::new();
                    one.text("failure", f);
                    one.finish()
                })
                .collect();
            json.raw("ok", if ok { "true" } else { "false" })
                .raw("wan_bytes", &format!("[{}]", wan.join(", ")))
                .raw("failures", &format!("[{}]", quoted.join(", ")));
        }
        other => {
            return Err(byc_types::Error::InvalidConfig(format!(
                "unknown step {other:?}; {USAGE}"
            )))
        }
    }
    Ok((json.finish(), ok))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&args) else {
        eprintln!("{USAGE}");
        eprintln!(
            "workloads: {}",
            Workload::ALL.map(Workload::name).join(", ")
        );
        return ExitCode::from(2);
    };
    match step(&args) {
        Ok((json, ok)) => {
            println!("{json}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench {} {}: {e}", args.command, args.workload.name());
            ExitCode::from(1)
        }
    }
}
