//! Percentiles and the printed report.

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or NaN when there is no base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

/// One named metric with its unit and the sample count behind it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.into(), value, unit, samples });
    }

    /// One aligned line per metric, for people.
    pub fn table(&self) -> String {
        self.metrics
            .iter()
            .map(|m| format!("{:<34} {:>16.6} {:<6} n={}\n", m.name, m.value, m.unit, m.samples))
            .collect()
    }

    /// The result object: every value printed with all its digits.
    /// Fails when a metric could not be measured (NaN or infinite).
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> Result<String, String> {
        let mut body = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} has no value ({})", m.name, m.value));
            }
            body.push(format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        ))
    }
}

/// Minimal JSON string escaping for the header and span file.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
