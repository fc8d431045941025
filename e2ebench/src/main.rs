//! `mergepath-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints three JSON lines: the environment fingerprint, run details (sample
//! and op counts), and last the result with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 0 when every checked op was correct.
//!
//! `--setup-child <warm-up ops>` (with `--workload`) is internal: the run
//! starts the program that way for each set-up it times (see `setup`).

use std::process::ExitCode;

use mergepath_e2ebench::{env, run, setup, Opts, Scale, Workload};

const USAGE: &str =
    "usage: mergepath-e2ebench --workload <merge_large|sort_keyed|tcp_small|tcp_mixed> \
     --seed <n> --seconds <s> --trace <0|1>";

/// The run's settings, and the warm-up ops when this is a set-up child.
fn parse(args: &[String]) -> Result<(Opts, Option<usize>), String> {
    let mut opts = Opts {
        workload: Workload::MergeLarge,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::full(),
        corrupt: false,
        exe: std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?,
    };
    let mut workload = None;
    let mut child = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            setup::CHILD_FLAG => {
                child = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad warm-up count {value}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok((opts, child))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok((opts, None)) => opts,
        Ok((opts, Some(warmup_ops))) => {
            return match setup::child(opts.workload, warmup_ops) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("set-up child: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ticks = env::cpu_ticks();
    let mut report = run(&opts);
    report.detail("steal_pct", env::steal_pct(ticks, env::cpu_ticks()));
    println!("{}", env::fingerprint_json(&opts));
    println!("{}", report.detail_json());
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
