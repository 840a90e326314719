//! Small helpers shared by the workloads: a seeded PRNG, percentiles, a JSON
//! writer, peak RSS and the `env` block.

use std::fmt::Write as _;
use std::time::Duration;

/// SplitMix64: the benchmark derives every input from `--seed` through this
/// generator, so the same seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.next_u64() as usize % items.len()]
    }
}

/// Latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// The median, over consecutive stretches of the run (see `windows`), of each
    /// stretch's `q`-quantile: a stretch disturbed by another process on the
    /// machine moves one window, not the result.
    pub fn windowed(&self, q: f64) -> f64 {
        // At least 10 samples beyond the quantile in every window.
        let min = (10.0 / (1.0 - q).max(1e-3)).ceil() as usize;
        let per_window: Vec<f64> = windows(&self.0, min).map(|w| quantile(w, q)).collect();
        median(&per_window)
    }

    /// Whole-run and windowed quantiles, max and count, in ms.
    pub fn summary(&self) -> Json {
        Json::obj()
            .num("p50_ms", self.quantile(0.5))
            .num("p99_ms", self.quantile(0.99))
            .num("windowed_p50_ms", self.windowed(0.5))
            .num("windowed_p90_ms", self.windowed(0.9))
            .num("windowed_p99_ms", self.windowed(0.99))
            .num("max_ms", self.quantile(1.0))
            .int("count", self.len() as u64)
            .strs(
                "p50_ms_by_window",
                &windows(&self.0, 100)
                    .map(|w| format!("{:.4}", quantile(w, 0.5)))
                    .collect::<Vec<_>>(),
            )
    }
}

/// Consecutive stretches a run's samples are split into for windowed medians:
/// up to 10, each of at least `min` samples.
fn windows<T>(v: &[T], min: usize) -> std::slice::Chunks<'_, T> {
    let count = (v.len() / min.max(1)).clamp(1, 10);
    v.chunks(v.len().div_ceil(count).max(1))
}

/// Operations completed against busy time, one entry per step or request.
#[derive(Debug, Default, Clone)]
pub struct Rate(Vec<(f64, f64)>);

impl Rate {
    pub fn push(&mut self, ops: u64, busy: Duration) {
        self.0.push((ops as f64, busy.as_secs_f64()));
    }

    /// Operations per busy second over the whole run.
    pub fn total(&self) -> f64 {
        let (ops, secs) = self
            .0
            .iter()
            .fold((0.0, 0.0), |(o, s), (ops, secs)| (o + ops, s + secs));
        ops / f64::max(secs, 1e-9)
    }

    /// Median over consecutive stretches (see `windows`) of each stretch's rate.
    pub fn windowed(&self) -> f64 {
        let per_window: Vec<f64> = windows(&self.0, 50)
            .map(|w| Rate(w.to_vec()).total())
            .collect();
        median(&per_window)
    }
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Sum of the sizes of every file under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A minimal JSON value builder (objects keep insertion order).
#[derive(Debug, Clone, Default)]
pub struct Json(String);

impl Json {
    pub fn obj() -> Json {
        Json(String::new())
    }

    fn key(mut self, key: &str) -> Json {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        let _ = write!(self.0, "{}:", quote(key));
        self
    }

    pub fn num(self, key: &str, v: f64) -> Json {
        let mut j = self.key(key);
        j.0.push_str(&number(v));
        j
    }

    pub fn int(self, key: &str, v: u64) -> Json {
        let mut j = self.key(key);
        let _ = write!(j.0, "{v}");
        j
    }

    pub fn str(self, key: &str, v: &str) -> Json {
        let mut j = self.key(key);
        j.0.push_str(&quote(v));
        j
    }

    pub fn bool(self, key: &str, v: bool) -> Json {
        let mut j = self.key(key);
        j.0.push_str(if v { "true" } else { "false" });
        j
    }

    pub fn obj_field(self, key: &str, v: Json) -> Json {
        let mut j = self.key(key);
        j.0.push_str(&v.render());
        j
    }

    pub fn strs(self, key: &str, items: &[String]) -> Json {
        let mut j = self.key(key);
        let body: Vec<String> = items.iter().map(|s| quote(s)).collect();
        let _ = write!(j.0, "[{}]", body.join(","));
        j
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

fn number(v: f64) -> String {
    if v == 0.0 {
        // Also -0.0, which an empty `f64` sum yields.
        "0".to_owned()
    } else if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The git revision of the checkout, read from `.git` without running git;
/// "unknown" outside a git work tree.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Today's UTC date as `YYYY-MM-DD`.
pub fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    // Civil-from-days (H. Hinnant).
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_escapes_and_orders_keys() {
        let j = Json::obj().str("a", "x\"y").int("b", 3).num("c", 0.5);
        assert_eq!(j.render(), r#"{"a":"x\"y","b":3,"c":0.5}"#);
    }

    #[test]
    fn date_is_iso_shaped() {
        let d = utc_date();
        assert_eq!(d.len(), 10);
        assert_eq!(&d[4..5], "-");
    }
}
