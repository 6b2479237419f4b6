//! Benchmark-side spans around the calls into each layer.
//!
//! A span is (name, start, end, parent, request id). Spans are kept in
//! memory and written to `out/trace_<workload>.json` when the run ends.
//! A span's self time is its duration minus its children's, so the self
//! times under one root add up to that root's duration — `write`
//! checks that before it writes anything.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// Handle returned by [`Tracer::enter`]; give it back to
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Per-thread span recorder. `Tracer::off()` records nothing and costs
/// one branch per call, so the same code path serves traced and
/// untraced passes.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn off() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer. Tracers that will be merged must share
    /// `origin` so their timestamps are comparable.
    pub fn on(origin: Instant, capacity: usize) -> Self {
        Self {
            on: true,
            origin,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.on {
            return Open(ROOT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close the span `enter` opened. Spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        let end = self.now_ns();
        self.spans[open.0 as usize].end_ns = end;
    }

    /// A tracer for another thread of the same pass: recording if this
    /// one is, on the same clock.
    pub fn fork(&self, capacity: usize) -> Tracer {
        if self.on {
            Tracer::on(self.origin, capacity)
        } else {
            Tracer::off()
        }
    }

    /// Append another thread's finished spans (its parent links are
    /// kept; its roots stay roots).
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Check the span tree and write it. Returns the number of spans
    /// written, or what is wrong with the tree.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> Result<usize, String> {
        if !self.stack.is_empty() {
            return Err(format!("{} span(s) still open", self.stack.len()));
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut roots_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            if s.parent == ROOT {
                roots_ns += dur;
                continue;
            }
            let p = self
                .spans
                .get(s.parent as usize)
                .ok_or_else(|| format!("span {i} names a parent that does not exist"))?;
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                return Err(format!(
                    "span {i} ({}) leaves its parent's interval",
                    s.name
                ));
            }
            child_ns[s.parent as usize] += dur;
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        let mut self_sum = 0u64;
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let own = dur
                .checked_sub(children)
                .ok_or_else(|| format!("children of a {} span outlast it", s.name))?;
            self_sum += own;
            let e = by_name.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += dur;
            e.2 += own;
        }
        if self_sum != roots_ns {
            return Err(format!(
                "self times sum to {self_sum} ns but the roots last {roots_ns} ns"
            ));
        }

        let names: Vec<&'static str> = by_name.keys().copied().collect();
        let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
        let file = std::fs::File::create(path).map_err(io)?;
        let mut w = std::io::BufWriter::new(file);
        (|| -> std::io::Result<()> {
            writeln!(w, "{{\"workload\": \"{workload}\", \"seed\": {seed},")?;
            writeln!(w, " \"roots_ns\": {roots_ns}, \"self_sum_ns\": {self_sum},")?;
            writeln!(w, " \"summary\": [")?;
            for (i, (name, (count, total, own))) in by_name.iter().enumerate() {
                let comma = if i + 1 < by_name.len() { "," } else { "" };
                writeln!(
                    w,
                    "  {{\"name\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}{comma}"
                )?;
            }
            writeln!(w, " ],")?;
            let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
            writeln!(w, " \"names\": [{}],", quoted.join(", "))?;
            writeln!(
                w,
                " \"span_fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\"],"
            )?;
            writeln!(w, " \"spans\": [")?;
            for (i, s) in self.spans.iter().enumerate() {
                let name_idx = names.binary_search(&s.name).unwrap_or(0);
                let parent = if s.parent == ROOT {
                    -1
                } else {
                    i64::from(s.parent)
                };
                let comma = if i + 1 < self.spans.len() { "," } else { "" };
                writeln!(
                    w,
                    "  [{name_idx}, {}, {}, {parent}, {}]{comma}",
                    s.start_ns, s.end_ns, s.request
                )?;
            }
            writeln!(w, " ]}}")?;
            w.flush()
        })()
        .map_err(io)?;
        Ok(self.spans.len())
    }
}
