//! End-to-end PUMA benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `lstm-serve`, `lstm-pipeline`, `mlp-tenants`, `cnn-loop`
//! (see `README.md` for why each was chosen and which layer each
//! end-to-end metric should move). Every run prints its metadata, every
//! end-to-end metric by name with its unit, the checks it made, and as the
//! last line of standard output one JSON result. With `--trace 1` it also
//! runs the traced pass and the result carries the per-layer metrics.
//! A failed check makes the run exit non-zero.

mod cnn;
mod host;
mod layers;
mod lstm;
mod path;
mod report;
mod rng;
mod serving;
mod tenants;
mod trace;

use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["lstm-serve", "lstm-pipeline", "mlp-tenants", "cnn-loop"];
const USAGE: &str = "usage: perfbench --workload <lstm-serve|lstm-pipeline|mlp-tenants|cnn-loop> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed phase, in host seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Host threads the serving stacks may use: at most two, and never
    /// more than the host has.
    pub host_threads: usize,
    pub nproc: usize,
}

impl Ctx {
    fn parse(args: impl Iterator<Item = String>) -> Result<Ctx, String> {
        let args: Vec<String> = args.collect();
        let value = |flag: &str| -> Result<String, String> {
            let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
            args.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
        };
        let workload = value("--workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".to_string());
        }
        let trace = match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(Ctx { workload, seed, seconds, trace, host_threads: nproc.min(2), nproc })
    }

    /// What every result records about how it was made.
    pub fn metadata(&self) -> Vec<(&'static str, String)> {
        vec![
            ("workload", self.workload.clone()),
            ("seed", self.seed.to_string()),
            ("seconds", self.seconds.to_string()),
            ("trace", u8::from(self.trace).to_string()),
            ("nproc", self.nproc.to_string()),
            ("host_threads", self.host_threads.to_string()),
            ("engine", format!("{:?}", puma::sim::SimEngine::default())),
            ("revision", git_revision()),
        ]
    }
}

/// The checkout's commit, read from `.git` without running git; a
/// checkout without history reports `unknown`.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let ctx = match Ctx::parse(std::env::args().skip(1)) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for (k, v) in ctx.metadata() {
        println!("meta {k} = {v}");
    }
    let probe = &mut host::Probe::new(ctx.host_threads);
    let result = match ctx.workload.as_str() {
        "lstm-serve" => serving::run(&mut lstm::Lstm::serve(), &ctx, probe),
        "lstm-pipeline" => serving::run(&mut lstm::Lstm::pipeline(), &ctx, probe),
        "mlp-tenants" => serving::run(&mut tenants::Tenants::default(), &ctx, probe),
        "cnn-loop" => cnn::run(&ctx, probe),
        _ => unreachable!("workload names are checked when parsed"),
    };
    match result {
        Ok(report) => {
            report.print(ctx.trace);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            ExitCode::from(1)
        }
    }
}
