//! Per-operation timing of the benchmark's `Session` calls, and the span
//! log of a traced run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The `Session` calls a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Session::set_view`.
    SetView,
    /// `Session::write`.
    Write,
    /// `Session::read`.
    Read,
    /// `Session::flush`.
    Flush,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::SetView => "session.set_view",
            Op::Write => "session.write",
            Op::Read => "session.read",
            Op::Flush => "session.flush",
        }
    }
}

/// One timed call: its name, the operation or layer case it belongs to,
/// and its start and end in nanoseconds since the run began.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name: a `Session` call or a layer function.
    pub name: &'static str,
    /// Operation id (Session calls) or layer-case id (layer calls).
    pub id: u64,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    #[must_use]
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Latencies and byte counts of one op kind.
#[derive(Debug, Default)]
pub struct Series {
    /// Latency of each successful call, µs.
    pub micros: Vec<f64>,
    /// Bytes the successful calls moved.
    pub bytes: u64,
    /// Per round: (MiB, calls) per second of time inside the calls.
    pub round_rates: Vec<(f64, f64)>,
    /// Calls and bytes recorded before the current round.
    mark: (usize, u64),
}

impl Series {
    /// Closes a round: its rates join `round_rates`.
    fn end_round(&mut self) {
        let calls = &self.micros[self.mark.0..];
        let secs = calls.iter().sum::<f64>() / 1e6;
        if secs > 0.0 {
            let mib = (self.bytes - self.mark.1) as f64 / (1024.0 * 1024.0);
            self.round_rates.push((mib / secs, calls.len() as f64 / secs));
        }
        self.mark = (self.micros.len(), self.bytes);
    }

    /// Median over rounds of MiB moved per second inside the calls.
    #[must_use]
    pub fn mib_per_s(&self) -> f64 {
        percentile(&self.round_rates.iter().map(|r| r.0).collect::<Vec<_>>(), 0.5)
    }

    /// Median over rounds of calls completed per second inside the calls.
    #[must_use]
    pub fn calls_per_s(&self) -> f64 {
        percentile(&self.round_rates.iter().map(|r| r.1).collect::<Vec<_>>(), 0.5)
    }
}

/// Times every `Session` call of a run; with tracing on, also keeps one
/// span per call in memory.
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    /// `Some` in a traced run.
    pub spans: Option<Vec<Span>>,
    /// `set_view` calls.
    pub sets: Series,
    /// `write` calls.
    pub writes: Series,
    /// `read` calls.
    pub reads: Series,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
}

impl Recorder {
    /// A recorder; `trace` keeps spans.
    #[must_use]
    pub fn new(trace: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: 0,
            spans: trace.then(Vec::new),
            sets: Series::default(),
            writes: Series::default(),
            reads: Series::default(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Times one call that moves `bytes` bytes when it succeeds.
    pub fn op<T, E: std::fmt::Display>(
        &mut self,
        op: Op,
        bytes: u64,
        call: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let id = self.next_id;
        self.next_id += 1;
        self.attempted += 1;
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        match result {
            Ok(v) => {
                let us = (end - start).as_secs_f64() * 1e6;
                let series = match op {
                    Op::SetView => Some(&mut self.sets),
                    Op::Write => Some(&mut self.writes),
                    Op::Read => Some(&mut self.reads),
                    Op::Flush => None,
                };
                if let Some(s) = series {
                    s.micros.push(us);
                    s.bytes += bytes;
                }
                self.span(op.name(), id, start, end);
                Some(v)
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {} (op {id}) failed: {e}", op.name());
                None
            }
        }
    }

    /// Closes a workload round.
    pub fn end_round(&mut self) {
        for s in [&mut self.sets, &mut self.writes, &mut self.reads] {
            s.end_round();
        }
    }

    /// Records a span when tracing.
    pub fn span(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| (t - self.epoch).as_nanos() as u64;
        let span = Span { name, id, start_ns: ns(start), end_ns: ns(end) };
        if let Some(spans) = &mut self.spans {
            spans.push(span);
        }
    }

    /// Times `f` as a span named `name` (a layer call) and returns its
    /// result with the elapsed µs.
    pub fn layer<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.span(name, id, start, end);
        (out, (end - start).as_secs_f64() * 1e6)
    }

    /// Median duration of the spans named `name`, µs (0 when none).
    #[must_use]
    pub fn span_median(&self, name: &str) -> f64 {
        let v: Vec<f64> =
            self.spans.iter().flatten().filter(|s| s.name == name).map(Span::micros).collect();
        percentile(&v, 0.5)
    }

    /// Writes the spans as JSON lines.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let Some(spans) = &self.spans else { return Ok(()) };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nearest-rank percentile `q` of `values` (0 when empty).
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn failed_calls_count_but_do_not_time() {
        let mut r = Recorder::new(true);
        assert_eq!(r.op(Op::Write, 10, || Ok::<_, String>(1)), Some(1));
        assert_eq!(r.op(Op::Write, 10, || Err::<u8, _>("down".to_string())), None);
        assert_eq!((r.attempted, r.failed, r.writes.micros.len(), r.writes.bytes), (2, 1, 1, 10));
        assert_eq!(r.spans.as_ref().map(Vec::len), Some(1));
    }
}
