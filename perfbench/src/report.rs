//! What a run prints: readable lines as it goes, then one JSON result
//! line with exactly `correct`, `attempted`, `failed` and `metrics`.

use std::fmt::Write as _;

#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn line(&mut self, s: String) {
        println!("{s}");
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// A failed output check: the run's result is incorrect.
    pub fn fail(&mut self, msg: String) {
        println!("CHECK FAILED: {msg}");
        self.failures.push(msg);
    }

    pub fn is_correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// `setup_s`: the median of every set-up measured in the run.
    pub fn setup(&mut self, samples_s: &[f64]) {
        let m = median(samples_s);
        self.line(format!(
            "setup_s {m:.6} s (median of {} set-ups)",
            samples_s.len()
        ));
        self.metric("setup_s", m, "s");
    }

    /// The result line.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no infinity; a percentile that lands on failed
            // requests reads as the largest finite number.
            let v = if value.is_finite() { *value } else { f64::MAX };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v:e}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.is_correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// `peak_rss_mb`: the process's resident high-water mark so far
/// (`VmHWM`), server and generator together.
pub fn peak_rss(report: &mut Report) {
    let mb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0);
    report.line(format!("peak_rss_mb {mb:.3} MB (VmHWM)"));
    report.metric("peak_rss_mb", mb, "MB");
}

/// Process CPU time so far, user plus system, seconds: the
/// `utime`/`stime` clock ticks of `/proc/self/stat`, exited threads
/// included.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / TICKS_PER_S)
        })
        .unwrap_or(f64::NAN)
}

/// Nearest-rank `p`-quantile of a sample; 0 when empty.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).max(1);
    v[rank - 1]
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn nearest_rank_quantile() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.1), 2.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 20.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn cpu_time_is_read_and_grows() {
        let a = cpu_seconds();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < std::time::Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > a, "{a}");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.metric("p50_us", 81.25, "us");
        r.metric("p99_us", f64::INFINITY, "us");
        r.attempted = 10;
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"p50_us\": {\"value\": 8.125e1, \"unit\": \"us\"}, \
             \"p99_us\": {\"value\": 1.7976931348623157e308, \"unit\": \"us\"}}}"
        );
        r.fail("x".into());
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
