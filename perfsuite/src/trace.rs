//! Harness-side tracing: a span around each call from the benchmark into
//! a layer's public API. Spans are kept in memory and written to
//! `trace.json` when the run ends; nothing is recorded, and no clock is
//! read, while tracing is off. The harness is single-threaded, so one
//! global stack gives every span its parent.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer whose public API was called (`stardb.sql`, `distfab`, ...).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Nanoseconds from the tracer's start.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's start; 0 while open.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Identifier shared by the spans of one operation (one statement,
    /// one job, one commit).
    pub op_id: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

static TRACER: Mutex<Option<Tracer>> = Mutex::new(None);

fn tracer() -> std::sync::MutexGuard<'static, Option<Tracer>> {
    // The harness never panics while holding this lock.
    TRACER.lock().expect("tracer lock is never poisoned")
}

/// Start recording spans (dropping any recorded so far).
pub fn start() {
    *tracer() = Some(Tracer {
        origin: Instant::now(),
        spans: Vec::with_capacity(1 << 16),
        open: Vec::new(),
    });
}

/// Stop recording and return what was recorded.
pub fn finish() -> Vec<Span> {
    tracer().take().map(|t| t.spans).unwrap_or_default()
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    tracer().is_some()
}

/// Closes its span when dropped.
pub struct Guard(Option<u32>);

/// Open a span; inert while tracing is off.
pub fn span(layer: &'static str, name: &'static str, op_id: u64) -> Guard {
    let mut guard = tracer();
    let Some(t) = guard.as_mut() else {
        return Guard(None);
    };
    let idx = t.spans.len() as u32;
    let parent = t.open.last().copied();
    t.open.push(idx);
    let start_ns = t.origin.elapsed().as_nanos() as u64;
    t.spans.push(Span {
        layer,
        name,
        start_ns,
        end_ns: 0,
        parent,
        op_id,
    });
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        if let Some(t) = tracer().as_mut() {
            t.spans[idx as usize].end_ns = t.origin.elapsed().as_nanos() as u64;
            t.open.retain(|&i| i != idx);
        }
    }
}

/// Self time per layer, seconds: each span's duration minus the part of
/// it its direct children cover, summed by the span's layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut self_ns: Vec<i128> = spans
        .iter()
        .map(|s| i128::from(s.end_ns) - i128::from(s.start_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p as usize] -= i128::from(s.end_ns) - i128::from(s.start_ns);
        }
    }
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns) {
        *out.entry(s.layer).or_insert(0.0) += ns.max(0) as f64 / 1e9;
    }
    out
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
            s.layer, s.name, s.start_ns, s.end_ns, s.op_id
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            layer,
            name: "x",
            start_ns,
            end_ns,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // casjobs [0, 100] > sql [10, 90] > btree [20, 50] and btree [60, 70].
        let spans = vec![
            sp("casjobs", 0, 100, None),
            sp("stardb.sql", 10, 90, Some(0)),
            sp("stardb.btree", 20, 50, Some(1)),
            sp("stardb.btree", 60, 70, Some(1)),
        ];
        let by = self_time_by_layer(&spans);
        assert!((by["casjobs"] - 20e-9).abs() < 1e-15);
        assert!((by["stardb.sql"] - 40e-9).abs() < 1e-15);
        assert!((by["stardb.btree"] - 40e-9).abs() < 1e-15);
        let total: f64 = by.values().sum();
        assert!(
            (total - 100e-9).abs() < 1e-15,
            "self times add up to the root span"
        );
    }

    #[test]
    fn spans_nest_and_are_inert_when_off() {
        // The only test that touches the global tracer.
        assert!(!enabled());
        drop(span("a", "off", 0));
        assert!(finish().is_empty());
        start();
        {
            let _outer = span("a", "outer", 7);
            let _inner = span("b", "inner", 7);
        }
        drop(span("a", "sibling", 8));
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (None, Some(0), None)
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let json = to_json(&spans);
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));
    }
}
