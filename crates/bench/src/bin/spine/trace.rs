//! Spans recorded by the benchmark around its calls into each layer, kept in
//! memory and written out when the run ends.

use crate::stats::median;
use std::fmt::Write as _;

/// Index of a span inside its [`Tracer`]; `NONE` for "no parent" and for
/// every span of a disabled tracer.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one request share its op seq; 0 outside any request.
    pub req: u64,
}

pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing: the untraced phases run the same code.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            spans: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Tracer {
            enabled: true,
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let start_ns = crate::sys::now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            self.spans[id as usize].end_ns = crate::sys::now_ns();
        }
    }

    /// Median self time per span name, in first-seen order.
    pub fn median_self_ns(&self) -> Vec<(&'static str, f64, usize)> {
        let selfs = self_times(&self.spans);
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let of_name: Vec<f64> = self
                    .spans
                    .iter()
                    .zip(&selfs)
                    .filter(|(s, _)| s.name == name)
                    .map(|(_, &t)| t as f64)
                    .collect();
                (
                    name,
                    median(&of_name).expect("name came from a span"),
                    of_name.len(),
                )
            })
            .collect()
    }

    /// `{"workload":…,"spans":[{"name":…,"start_ns":…,"end_ns":…,"parent":…,"req":…},…]}`
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if start < end {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("req", 0, 100, NONE),
            span("encode", 10, 20, 0),
            span("rtt", 30, 80, 0),
            // Overlaps `rtt` by 10: the union covers 10..20 and 30..90.
            span("decode", 70, 90, 0),
            // A grandchild only shortens its own parent.
            span("kernel", 40, 60, 2),
            // A child sticking out of its parent is clipped to it.
            span("late", 95, 120, 0),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 10 - 60 - 5, 10, 50 - 20, 20, 20, 25]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("req", NONE, 1);
        t.end(id);
        assert_eq!(id, NONE);
        assert!(t.median_self_ns().is_empty());
    }

    #[test]
    fn medians_are_per_name_and_json_lists_every_span() {
        let mut t = Tracer::on();
        for req in 1..=3 {
            let root = t.begin("req", NONE, req);
            let child = t.begin("rtt", root, req);
            t.end(child);
            t.end(root);
        }
        let m = t.median_self_ns();
        assert_eq!(
            m.iter().map(|(n, _, c)| (*n, *c)).collect::<Vec<_>>(),
            vec![("req", 3), ("rtt", 3)]
        );
        let json = t.to_json("w");
        assert_eq!(json.matches("\"name\":").count(), 6);
        assert!(json.contains("\"parent\":-1") && json.contains("\"parent\":0"));
    }
}
