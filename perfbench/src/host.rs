//! Host provenance and the configuration guard.

use crate::json::Json;

/// Environment switches that change what the program computes. A run
/// with any of them set measures a different program, so it is refused.
pub const FORBIDDEN_ENV: [&str; 2] = ["PHEIG_FAULT_PLAN", "PHEIG_NO_RECYCLE"];

/// The first forbidden switch that is set, if any.
pub fn forbidden_env() -> Option<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .find(|name| std::env::var_os(name).is_some())
}

/// CPU threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// CPU model, thread count, compiler and source revision.
pub fn describe() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj()
        .with("cpu_model", cpu_model)
        .with("nproc", nproc())
        .with("rustc", command_line("rustc", &["--version"]))
        .with("git_rev", git_rev())
}

/// The commit checked out in the working directory, read from `.git`
/// there (never from a parent directory). Outside a git checkout — the
/// benchmark may run from an exported tree — it is `"unknown"`.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
