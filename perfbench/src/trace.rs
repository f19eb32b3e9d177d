//! In-memory spans for the traced pass. A span is recorded around each
//! call the benchmark makes into a layer; spans of one micro-flow share
//! its id as their request id. Spans stay in memory and are written once,
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Request id: the micro-flow (or pipeline call) the span serves.
    pub req: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Writes every span as one JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let mut s = format!("{{{header}, \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"req\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { ",\n" },
                sp.name,
                sp.req,
                sp.start_ns,
                sp.end_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover. `spans` starts at index `base` of
/// the tracer, and parents outside it are ignored.
pub fn self_times(spans: &[Span], base: usize) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(kids) = sp
            .parent
            .and_then(|p| p.checked_sub(base))
            .and_then(|p| children.get_mut(p))
        {
            kids.push((sp.start_ns, sp.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (sp, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = sp.start_ns;
        for &(start, end) in kids.iter() {
            let (start, end) = (start.max(reach), end.min(sp.end_ns));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        *out.entry(sp.name).or_insert(0) += (sp.end_ns - sp.start_ns).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50),  // overlaps a by 10
            span("a", Some(0), 90, 120), // runs past the parent's end
        ];
        let t = self_times(&spans, 0);
        assert_eq!(t["root"], 100 - 40 - 10);
        assert_eq!(t["a"], 30 + 30);
        assert_eq!(t["b"], 20);
    }
}
