//! Host-time spans recorded around the benchmark's calls into each
//! crate.
//!
//! A span is `(name, start, end, parent)`. Repeated calls to the same
//! layer from the same parent (one `core.generate` per replication, one
//! `core.feed` per chunk) merge into one node that keeps the first
//! start, the last end, the call count and the summed busy time, so a
//! 100k-replication pass stays a tree of a few dozen nodes. A node's
//! self time is its busy time minus its children's busy time.

use std::fmt::Write as _;
use std::time::Instant;

/// One merged span node.
#[derive(Debug, Clone)]
pub struct Node {
    /// The span's own name, e.g. `core.feed`.
    pub name: String,
    /// Slash-joined names from the root, e.g. `pass/sched.run/core.feed`.
    pub path: String,
    /// Index of the parent node (`None` for a root).
    pub parent: Option<usize>,
    /// Nanoseconds from the recorder's origin to the first call's start.
    pub start_ns: u64,
    /// Nanoseconds from the origin to the last call's end.
    pub end_ns: u64,
    /// Calls merged into this node.
    pub calls: u64,
    /// Summed duration of every call, in nanoseconds.
    pub busy_ns: u64,
}

/// An in-memory span tree, written out once the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    nodes: Vec<Node>,
    open: Vec<(usize, Instant)>,
    /// The node the previous `enter` resolved to: hot loops re-enter
    /// the same span, so this skips the search (its cost is charged to
    /// the parent's self time).
    last: usize,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            nodes: Vec::new(),
            open: Vec::new(),
            last: 0,
        }
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &str) {
        let parent = self.open.last().map(|&(i, _)| i);
        let matches = |n: &Node| n.parent == parent && n.name == name;
        let found = match self.nodes.get(self.last) {
            Some(n) if matches(n) => Some(self.last),
            _ => self.nodes.iter().rposition(matches),
        };
        let now = Instant::now();
        let index = found.unwrap_or_else(|| {
            let path = match parent {
                Some(p) => format!("{}/{name}", self.nodes[p].path),
                None => name.to_string(),
            };
            let start_ns = self.since_origin(now);
            self.nodes.push(Node {
                name: name.to_string(),
                path,
                parent,
                start_ns,
                end_ns: start_ns,
                calls: 0,
                busy_ns: 0,
            });
            self.nodes.len() - 1
        });
        self.last = index;
        self.open.push((index, now));
    }

    /// Close the innermost open span.
    ///
    /// # Panics
    /// If no span is open (a bug in the benchmark's own bracketing).
    pub fn exit(&mut self) {
        let (index, start) = self.open.pop().expect("exit() matches an enter()");
        let now = Instant::now();
        let end_ns = self.since_origin(now);
        let node = &mut self.nodes[index];
        node.calls += 1;
        node.busy_ns += nanos(now.duration_since(start));
        node.end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Summed busy seconds of every node named `name` below `root`.
    pub fn busy_under(&self, root: &str, name: &str) -> f64 {
        self.under(root, name)
            .map(|i| self.nodes[i].busy_ns)
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Summed self seconds of every node named `name` below `root`.
    pub fn self_under(&self, root: &str, name: &str) -> f64 {
        self.under(root, name).map(|i| self.self_ns(i)).sum::<u64>() as f64 * 1e-9
    }

    fn under<'a>(&'a self, root: &'a str, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        self.nodes.iter().enumerate().filter_map(move |(i, n)| {
            let below = n
                .path
                .strip_prefix(root)
                .is_some_and(|rest| rest.starts_with('/'));
            (below && n.name == name).then_some(i)
        })
    }

    fn self_ns(&self, index: usize) -> u64 {
        let children: u64 = self
            .nodes
            .iter()
            .filter(|n| n.parent == Some(index))
            .map(|n| n.busy_ns)
            .sum();
        self.nodes[index].busy_ns.saturating_sub(children)
    }

    /// Every node as a JSON array, parents before children.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let parent = n
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}, \"busy_s\": {}, \"self_s\": {}}}",
                n.path,
                n.start_ns,
                n.end_ns,
                n.calls,
                n.busy_ns as f64 * 1e-9,
                self.self_ns(i) as f64 * 1e-9,
            );
            out.push_str(if i + 1 < self.nodes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }

    fn since_origin(&self, now: Instant) -> u64 {
        nanos(now.duration_since(self.origin))
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_calls_merge_and_self_time_excludes_children() {
        let mut spans = Spans::new();
        spans.enter("pass");
        for _ in 0..3 {
            spans.enter("sched.run");
            spans.time("core.feed", || std::hint::black_box(1 + 1));
            spans.exit();
        }
        spans.exit();
        let run = spans.busy_under("pass", "sched.run");
        let feed = spans.busy_under("pass", "core.feed");
        let own = spans.self_under("pass", "sched.run");
        assert!(feed > 0.0 && (own - (run - feed)).abs() < 1e-9);
        assert_eq!(spans.busy_under("pas", "core.feed"), 0.0);
        let json = spans.to_json();
        assert!(json.contains("\"name\": \"pass/sched.run/core.feed\", \"parent\": 1"));
        assert_eq!(json.matches("\"calls\": 3").count(), 2, "{json}");
    }
}
