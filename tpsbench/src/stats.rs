//! Small numeric helpers: order statistics, the output digest and the
//! process memory high-water mark.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`; 0 when empty.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// 64-bit FNV-1a digest of `text`, as 16 hex digits. Stable across
/// builds and toolchains, unlike the standard library's hasher.
#[must_use]
pub fn digest(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable or has no `VmHWM` line
/// (the benchmark runs on Linux).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn reads_the_high_water_mark() {
        assert!(peak_rss_mib() > 0.0);
    }
}
