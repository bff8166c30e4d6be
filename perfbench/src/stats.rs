//! Order statistics and the in-memory span log of the traced run.

use std::time::Instant;

/// The `q` quantile of `v` (0 ≤ q ≤ 1), linearly interpolated between
/// order statistics; 0 for an empty slice. Sorts `v` in place.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// One complete span: a layer call or client call for one batch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Batch id the call worked on (0 for calls on no single batch).
    pub batch: u64,
    pub t0_ns: u64,
    pub t1_ns: u64,
}

/// A thread's spans, kept in memory until the run ends. Recording is
/// a `Vec` push; a disabled log records nothing. (Not a
/// `ddc_obs::TraceSink`: its rings overwrite when full, and the run
/// must keep every span.)
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    pub track: &'static str,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, enabled: bool, track: &'static str) -> SpanLog {
        SpanLog {
            origin,
            enabled,
            track,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn record(&mut self, name: &'static str, batch: u64, t0: Instant, t1: Instant) {
        if self.enabled {
            let span = Span {
                name,
                batch,
                t0_ns: self.ns(t0),
                t1_ns: self.ns(t1),
            };
            self.spans.push(span);
        }
    }
}

/// Renders span logs as a Chrome trace-event document (complete "X"
/// events, one thread row per log), with `meta` as `otherData`.
pub fn chrome_json(logs: &[SpanLog], meta: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, log) in logs.iter().enumerate() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            log.track
        ));
        for s in &log.spans {
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"batch\":{}}}}}",
                s.name,
                s.t0_ns as f64 / 1e3,
                s.t1_ns.saturating_sub(s.t0_ns) as f64 / 1e3,
                s.batch
            ));
        }
    }
    out.push_str(&format!("\n],\"otherData\":{meta}}}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
