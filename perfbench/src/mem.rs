//! Peak resident memory of this process, from Linux's `/proc/self`.
//!
//! The benchmark has no counting global allocator: implementing
//! `GlobalAlloc` takes `unsafe`, and the repository's unsafe audit
//! freezes the set of files allowed to contain it.

/// Restarts the kernel's peak-RSS mark (`VmHWM`) at the current RSS.
/// Returns `false` where the kernel does not support the reset; the
/// peak then counts from process start.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size in bytes since the last [`reset_peak`]
/// (`VmHWM`), or `None` when `/proc/self/status` is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak RSS in MB (10^6 bytes) since the last [`reset_peak`]; 0 when it
/// cannot be read.
pub fn peak_rss_mb() -> f64 {
    peak_rss_bytes().map_or(0.0, |b| b as f64 / 1e6)
}

/// Where the reported peak counts from, given [`reset_peak`]'s result.
pub fn since(reset: bool) -> &'static str {
    if reset {
        "window start"
    } else {
        "process start"
    }
}
