//! The benchmark's own in-memory spans.
//!
//! A traced run wraps every call the benchmark makes into a layer's public
//! functions in a [`Span`]: name, start, end, the span that caused it, and
//! the request it belongs to. Spans stay in memory until the run ends, then
//! go to `<target>/perf/<workload>.trace.json` with each span's self time
//! (its duration minus what its children cover). Nothing here touches
//! `delrec-obs`: spans inside the program are a later change.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `serve.submit`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request the span belongs to (spans of one request share it).
    pub request: Option<u64>,
}

/// Handle to an open span; `None` inside when tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Span recorder shared by the generator thread and the server's scheduler
/// thread (through the benchmark's model wrapper).
pub struct Tracer {
    origin: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; with `enabled` false every call is a branch and nothing
    /// else, so the untraced run executes the same code.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: AtomicBool::new(enabled),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded. `Relaxed`: the flag publishes no
    /// other data, and it is flipped only between phases.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Start or stop recording (a traced run measures one phase untraced
    /// to report what tracing costs).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// `t` in ns since the tracer's origin.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now.
    pub fn begin(&self, name: &'static str, parent: SpanId, request: Option<u64>) -> SpanId {
        if !self.enabled() {
            return SpanId(None);
        }
        let start_ns = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("tracer poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            request,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Close a span now.
    pub fn end(&self, id: SpanId) {
        if let Some(i) = id.0 {
            let end_ns = self.ns(Instant::now());
            self.spans.lock().expect("tracer poisoned")[i].end_ns = end_ns;
        }
    }

    /// Record a span whose ends were measured elsewhere (a response's
    /// server-side queue wait, say), in ns since the origin.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        request: Option<u64>,
    ) -> SpanId {
        if !self.enabled() {
            return SpanId(None);
        }
        let mut spans = self.spans.lock().expect("tracer poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: parent.0,
            request,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Run `f` inside a span and return its result with the elapsed time.
    /// The time is measured whether or not tracing is on: set-up stages
    /// report it either way.
    pub fn time<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name, parent, None);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    /// No parent.
    pub const ROOT: SpanId = SpanId(None);

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover (children may overlap each other and may stick out of
/// the parent; both are clipped).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerTotal {
    /// Span name.
    pub name: &'static str,
    /// Spans with that name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Aggregate spans by name, ordered by name.
pub fn layer_totals(spans: &[Span]) -> Vec<LayerTotal> {
    let selfs = self_times(spans);
    let mut by_name: std::collections::BTreeMap<&'static str, LayerTotal> = Default::default();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = by_name.entry(s.name).or_insert(LayerTotal {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        e.count += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += self_ns;
    }
    by_name.into_values().collect()
}

/// Write the span file: one object with the per-name totals and every span.
/// Span names are static identifiers, so no escaping is needed.
pub fn write_json(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"layers\":["
    )?;
    let totals = layer_totals(spans);
    for (i, t) in totals.iter().enumerate() {
        let comma = if i + 1 < totals.len() { "," } else { "" };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}{comma}",
            t.name, t.count, t.total_ns, t.self_ns
        )?;
    }
    writeln!(w, "],\"spans\":[")?;
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"self_ns\":{self_ns}}}{comma}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.request),
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

/// Write `workload`'s span file under the run's scratch directory; a failure
/// to write it fails the run.
pub fn write_file(workload: &str, tracer: &Tracer, checks: &mut crate::report::Checks) {
    let path = crate::scratch_dir().join(format!("{workload}.trace.json"));
    match write_json(&path, workload, &tracer.spans()) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            checks.check("span file written", false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span("request", 0, 100, None),
            span("submit", 0, 10, Some(0)),
            // Overlaps `submit` by 5 and sticks out of the parent by 20.
            span("queue", 5, 60, Some(0)),
            span("call", 60, 120, Some(0)),
            span("kernel", 70, 90, Some(3)),
        ];
        let selfs = self_times(&spans);
        // Children cover [0,60] ∪ [60,100] of the parent: nothing is left.
        assert_eq!(selfs[0], 0);
        assert_eq!(selfs[1], 10);
        assert_eq!(selfs[2], 55);
        assert_eq!(selfs[3], 40);
        assert_eq!(selfs[4], 20);
    }

    #[test]
    fn gaps_between_children_are_the_parents_own_time() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 20, Some(0)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 70);
        let totals = layer_totals(&spans);
        assert_eq!(totals.len(), 3);
        assert_eq!(totals[2].name, "request");
        assert_eq!(totals[2].self_ns, 70);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let t = Tracer::new(false);
        let (v, secs) = t.time("x", Tracer::ROOT, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let outer = t.begin("outer", Tracer::ROOT, Some(3));
        t.time("inner", outer, || ());
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].request, Some(3));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
