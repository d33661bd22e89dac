//! Command-line entry of the pheig benchmark (see the library docs).

use pheig_perfbench::json::Json;
use pheig_perfbench::{host, run, Config};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: pheig-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(name) = host::forbidden_env() {
        eprintln!(
            "error: {name} is set; it changes what the program computes, so no result is recorded"
        );
        return ExitCode::from(3);
    }
    if host::nproc() < 2 {
        eprintln!("warning: fewer than 2 CPUs; two-thread timings measure oversubscription");
    }
    let host = host::describe();
    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    if out.attempted == 0 {
        eprintln!("error: no job was attempted");
        return ExitCode::from(1);
    }
    for problem in &out.problems {
        eprintln!("problem: {problem}");
    }
    let report = Json::obj()
        .with("workload", cfg.workload.clone())
        .with("seed", cfg.seed)
        .with("seconds", cfg.seconds)
        .with("trace", cfg.trace)
        .with("host", host)
        .with("detail", out.report.clone())
        .with("problems", out.problems.clone());
    println!("{report}");
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}
