//! Real-workflow trace ingestion: DAX, WfCommons and DOT parsers.
//!
//! The paper's §V–§VI protocol — and every extension study so far — runs on
//! synthetic or parameterized DAGs. This module loads *real* scientific-
//! workflow traces (Montage, Epigenomics, CyberShake, …) in the three
//! formats the community publishes them in:
//!
//! * [`dax`] — the Pegasus DAX XML subset (`<adag>` / `<job>` /
//!   `<uses>` / `<child>`–`<parent>`);
//! * [`wfcommons`] — the WfCommons JSON instance format (`workflow.tasks`
//!   with `parents` and per-file byte sizes);
//! * [`dot`] — Graphviz digraphs with `size` / `runtime` node attributes
//!   and `size` edge attributes.
//!
//! All three are hand-rolled (no external dependencies): [`json`] is a
//! recursive-descent JSON parser shared with the `serve` protocol front
//! end, [`xml`] a minimal XML tree reader, and the DOT tokenizer lives in
//! [`dot`]. Each parser produces a [`TraceDag`] — tasks with flop counts,
//! edges with byte volumes, and name ↔ id maps — which
//! [`TraceDag::to_task_graph`] converts into the workspace's [`TaskGraph`]
//! under a fixed unit convention (see [`REF_SPEED`], [`REF_BANDWIDTH`],
//! [`TARGET_MEAN_WORK`]).
//!
//! Every parser is *total*: malformed input of any kind — truncation,
//! mutation, wrong structure, cycles, negative sizes — yields a
//! [`ParseError`], never a panic (pinned by the malformed-input corpus
//! sweep in `crates/dag/tests/parsers_malformed.rs`).

pub mod dax;
pub mod dot;
pub mod json;
pub mod wfcommons;
pub mod xml;

use crate::graph::{Dag, NodeId};
use crate::task_graph::TaskGraph;
use std::collections::HashMap;

/// Reference machine speed (flops per second) used to convert between flop
/// counts and runtimes: a DAX/WfCommons `runtime` of `t` seconds becomes
/// `t · REF_SPEED` flops, and [`TraceDag::to_task_graph`] divides flops by
/// this to recover abstract work in reference-seconds.
pub const REF_SPEED: f64 = 1e9;

/// Reference network bandwidth (bytes per second): an edge shipping `b`
/// bytes costs `b / REF_BANDWIDTH` reference-seconds, so the trace's real
/// computation-to-communication ratio survives the unit conversion.
pub const REF_BANDWIDTH: f64 = 1e9;

/// Mean task work the converted graph is normalized to — the paper's
/// `μ_task = 20`, so trace-driven scenarios live at the same cost
/// magnitude as every generated workload. The *same* factor rescales the
/// edge volumes, keeping the trace's realized CCR invariant.
pub const TARGET_MEAN_WORK: f64 = 20.0;

/// The run of `b` from `*pos` up to the next `"` or `\\` (or the end),
/// validated as UTF-8, with `*pos` moved past it. Both stop bytes are
/// ASCII, so the run ends on a scalar boundary, and validating only the
/// run keeps the quoted-string lexers linear in their input.
fn string_run<'a>(b: &'a [u8], pos: &mut usize) -> Result<&'a str, std::str::Utf8Error> {
    let start = *pos;
    while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
}

/// A trace-ingestion error: what went wrong and (where available) where.
///
/// Deliberately a single-message type — callers either surface the message
/// or treat any parse failure uniformly (the malformed-input sweep).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description, including byte/position context when the
    /// tokenizers can provide it.
    pub message: String,
}

impl ParseError {
    /// Builds an error from anything stringifiable.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<String> for ParseError {
    fn from(message: String) -> Self {
        Self { message }
    }
}

/// One task of a parsed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTask {
    /// The task's name (DAX `id`, WfCommons task name, DOT node id) —
    /// unique within the trace.
    pub name: String,
    /// Computational work in flops (runtimes are converted via
    /// [`REF_SPEED`] at parse time). Finite and non-negative.
    pub flops: f64,
}

/// A parsed workflow trace: the dependency structure, per-task flop
/// counts, per-edge byte volumes, and the name ↔ id maps.
///
/// Produced by [`dax::parse_dax`], [`wfcommons::parse_wfcommons`] and
/// [`dot::parse_dot`]; consumed by [`TraceDag::to_task_graph`] (and, one
/// level up, `Scenario::from_trace`). Invariants guaranteed by
/// construction: the DAG is acyclic, all weights are finite and
/// non-negative, task names are unique, and the total flop count is
/// strictly positive — so downstream conversion can never panic.
#[derive(Debug, Clone)]
pub struct TraceDag {
    /// Trace name (workflow name from the file, or the caller-supplied
    /// fallback).
    pub name: String,
    /// Dependency structure; edge ids index [`TraceDag::edge_bytes`].
    pub dag: Dag,
    /// Tasks, indexed by [`NodeId`].
    pub tasks: Vec<TraceTask>,
    /// Bytes transferred along each edge (dense, parallel to the DAG's
    /// edge ids).
    pub edge_bytes: Vec<f64>,
    /// Task name → id.
    name_to_id: HashMap<String, NodeId>,
}

impl TraceDag {
    /// Assembles a trace programmatically — the entry point for callers
    /// that *construct* traces instead of parsing them (the adversarial
    /// perturbation layer rebuilds mutated traces through here). `tasks`
    /// is `(name, flops)` in id order; `edges` is `(src, dst, bytes)` over
    /// those ids, duplicates merging their byte volumes.
    ///
    /// Runs exactly the validation the file parsers run: duplicate names,
    /// self-loops, cycles, non-finite/negative weights and all-zero work
    /// are rejected with a [`ParseError`], never a panic — so every
    /// invariant the doc comment above guarantees holds for built traces
    /// too. Out-of-range edge ids are rejected as unknown tasks.
    pub fn from_parts(
        name: impl Into<String>,
        tasks: &[(String, f64)],
        edges: &[(NodeId, NodeId, f64)],
    ) -> Result<TraceDag, ParseError> {
        let name = name.into();
        let mut b = TraceBuilder::new();
        for (task, flops) in tasks {
            b.add_task(task, *flops)?;
        }
        for &(src, dst, bytes) in edges {
            if src >= tasks.len() || dst >= tasks.len() {
                return Err(ParseError::new(format!(
                    "edge ({src}, {dst}) references a task outside 0..{}",
                    tasks.len()
                )));
            }
            b.add_edge(src, dst, bytes)?;
        }
        b.finish(name)
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.edge_bytes.len()
    }

    /// Looks a task up by name.
    pub fn task_id(&self, name: &str) -> Option<NodeId> {
        self.name_to_id.get(name).copied()
    }

    /// The name of task `id`.
    pub fn task_name(&self, id: NodeId) -> &str {
        &self.tasks[id].name
    }

    /// Total flops across all tasks (strictly positive by construction).
    pub fn total_flops(&self) -> f64 {
        self.tasks.iter().map(|t| t.flops).sum()
    }

    /// Total bytes across all edges.
    pub fn total_bytes(&self) -> f64 {
        self.edge_bytes.iter().sum()
    }

    /// Converts the trace into a [`TaskGraph`] under the fixed unit
    /// convention: flops become reference-seconds ([`REF_SPEED`]), bytes
    /// become reference-seconds ([`REF_BANDWIDTH`]), then one global
    /// factor rescales both so the mean task work is
    /// [`TARGET_MEAN_WORK`] — preserving both the trace's relative task
    /// sizes and its realized CCR. Deterministic: no randomness enters
    /// here (seed-driven jitter is the platform layer's job).
    pub fn to_task_graph(&self) -> TaskGraph {
        let work_raw: Vec<f64> = self.tasks.iter().map(|t| t.flops / REF_SPEED).collect();
        let mean = work_raw.iter().sum::<f64>() / work_raw.len() as f64;
        let scale = TARGET_MEAN_WORK / mean;
        let work: Vec<f64> = work_raw.iter().map(|w| w * scale).collect();
        let volumes: Vec<f64> = self
            .edge_bytes
            .iter()
            .map(|b| b / REF_BANDWIDTH * scale)
            .collect();
        TaskGraph::new(
            self.dag.clone(),
            work,
            volumes,
            format!("trace-{}", self.name),
        )
    }
}

/// Dispatches on the file extension: `.dax`/`.xml` → DAX, `.json` →
/// WfCommons, `.dot`/`.gv` → DOT. The trace name defaults to the file
/// stem when the document does not carry one.
pub fn parse_trace(filename: &str, content: &str) -> Result<TraceDag, ParseError> {
    let lower = filename.to_ascii_lowercase();
    let stem = std::path::Path::new(filename)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(filename);
    if lower.ends_with(".dax") || lower.ends_with(".xml") {
        dax::parse_dax(content, stem)
    } else if lower.ends_with(".json") {
        wfcommons::parse_wfcommons(content, stem)
    } else if lower.ends_with(".dot") || lower.ends_with(".gv") {
        dot::parse_dot(content, stem)
    } else {
        Err(ParseError::new(format!(
            "unrecognized trace extension in '{filename}' (expected .dax/.xml, .json, or .dot/.gv)"
        )))
    }
}

/// Shared trace assembly used by all three parsers: collects tasks and
/// raw edges, then validates everything [`TraceDag`] guarantees.
#[derive(Debug, Default)]
pub(crate) struct TraceBuilder {
    tasks: Vec<TraceTask>,
    name_to_id: HashMap<String, NodeId>,
    /// `(src, dst, bytes)`; duplicates are merged (bytes summed) at
    /// [`TraceBuilder::finish`] time because formats legitimately repeat a
    /// dependency (one entry per shared file, say).
    edges: Vec<(NodeId, NodeId, f64)>,
}

impl TraceBuilder {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a task; duplicate names are an error.
    pub(crate) fn add_task(&mut self, name: &str, flops: f64) -> Result<NodeId, ParseError> {
        if !flops.is_finite() || flops < 0.0 {
            return Err(ParseError::new(format!(
                "task '{name}' has invalid work {flops} (must be finite and non-negative)"
            )));
        }
        if self.name_to_id.contains_key(name) {
            return Err(ParseError::new(format!("duplicate task '{name}'")));
        }
        let id = self.tasks.len();
        self.tasks.push(TraceTask {
            name: name.to_string(),
            flops,
        });
        self.name_to_id.insert(name.to_string(), id);
        Ok(id)
    }

    /// The id of a known task, or a "references unknown task" error.
    pub(crate) fn require_task(&self, name: &str) -> Result<NodeId, ParseError> {
        self.name_to_id
            .get(name)
            .copied()
            .ok_or_else(|| ParseError::new(format!("reference to unknown task '{name}'")))
    }

    /// The id of `name`, creating a zero-work task on first sight (DOT
    /// nodes may appear first inside an edge statement).
    pub(crate) fn get_or_create_task(&mut self, name: &str) -> Result<NodeId, ParseError> {
        match self.name_to_id.get(name) {
            Some(&id) => Ok(id),
            None => self.add_task(name, 0.0),
        }
    }

    /// Overwrites the work of an existing task (DOT attribute lists arrive
    /// after the node is first mentioned).
    pub(crate) fn set_task_flops(&mut self, id: NodeId, flops: f64) -> Result<(), ParseError> {
        if !flops.is_finite() || flops < 0.0 {
            return Err(ParseError::new(format!(
                "task '{}' has invalid work {flops} (must be finite and non-negative)",
                self.tasks[id].name
            )));
        }
        self.tasks[id].flops = flops;
        Ok(())
    }

    /// Records a dependency edge; self-loops and invalid byte counts are
    /// errors, duplicates merge later.
    pub(crate) fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
    ) -> Result<(), ParseError> {
        if src == dst {
            return Err(ParseError::new(format!(
                "self-dependency on task '{}'",
                self.tasks[src].name
            )));
        }
        if !bytes.is_finite() || bytes < 0.0 {
            return Err(ParseError::new(format!(
                "edge '{}' -> '{}' has invalid byte volume {bytes}",
                self.tasks[src].name, self.tasks[dst].name
            )));
        }
        self.edges.push((src, dst, bytes));
        Ok(())
    }

    /// Validates and assembles the [`TraceDag`]: merges duplicate edges,
    /// builds the dense DAG, rejects cycles and all-zero work.
    pub(crate) fn finish(self, name: String) -> Result<TraceDag, ParseError> {
        if self.tasks.is_empty() {
            return Err(ParseError::new(format!("trace '{name}' has no tasks")));
        }
        let mut dag = Dag::new(self.tasks.len());
        let mut edge_bytes: Vec<f64> = Vec::new();
        for (src, dst, bytes) in self.edges {
            match dag.edge_between(src, dst) {
                Some(e) => edge_bytes[e] += bytes,
                None => {
                    let e = dag.add_edge(src, dst);
                    debug_assert_eq!(e, edge_bytes.len());
                    edge_bytes.push(bytes);
                }
            }
        }
        if dag.topo_order().is_none() {
            return Err(ParseError::new(format!(
                "trace '{name}' contains a dependency cycle"
            )));
        }
        if self.tasks.iter().map(|t| t.flops).sum::<f64>() <= 0.0 {
            return Err(ParseError::new(format!(
                "trace '{name}' has no computational work (all task sizes are zero)"
            )));
        }
        Ok(TraceDag {
            name,
            dag,
            tasks: self.tasks,
            edge_bytes,
            name_to_id: self.name_to_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_task_trace() -> TraceDag {
        let mut b = TraceBuilder::new();
        let a = b.add_task("a", 2e9).unwrap();
        let c = b.add_task("b", 6e9).unwrap();
        b.add_edge(a, c, 4e9).unwrap();
        b.finish("tiny".into()).unwrap()
    }

    #[test]
    fn builder_assembles_and_maps_names() {
        let t = two_task_trace();
        assert_eq!(t.task_count(), 2);
        assert_eq!(t.edge_count(), 1);
        assert_eq!(t.task_id("b"), Some(1));
        assert_eq!(t.task_name(0), "a");
        assert_eq!(t.task_id("zzz"), None);
        assert_eq!(t.total_flops(), 8e9);
        assert_eq!(t.total_bytes(), 4e9);
    }

    #[test]
    fn to_task_graph_normalizes_mean_work_and_preserves_ccr() {
        let t = two_task_trace();
        let tg = t.to_task_graph();
        let mean = tg.task_work.iter().sum::<f64>() / tg.task_work.len() as f64;
        assert!((mean - TARGET_MEAN_WORK).abs() < 1e-9);
        // Relative sizes survive: b is 3× a.
        assert!((tg.task_work[1] / tg.task_work[0] - 3.0).abs() < 1e-9);
        // CCR invariant: 4e9 bytes over 8e9 flops at equal reference rates
        // → 0.5.
        assert!((tg.realized_ccr() - 0.5).abs() < 1e-12);
        assert_eq!(tg.name, "trace-tiny");
    }

    #[test]
    fn builder_rejects_duplicates_self_loops_cycles_and_zero_work() {
        let mut b = TraceBuilder::new();
        b.add_task("a", 1.0).unwrap();
        assert!(b.add_task("a", 2.0).is_err());
        assert!(b.add_task("neg", -1.0).is_err());

        let mut b = TraceBuilder::new();
        let a = b.add_task("a", 1.0).unwrap();
        assert!(b.add_edge(a, a, 0.0).is_err());

        let mut b = TraceBuilder::new();
        let a = b.add_task("a", 1.0).unwrap();
        let c = b.add_task("b", 1.0).unwrap();
        b.add_edge(a, c, 1.0).unwrap();
        b.add_edge(c, a, 1.0).unwrap();
        assert!(b.finish("cyc".into()).is_err());

        let mut b = TraceBuilder::new();
        b.add_task("a", 0.0).unwrap();
        assert!(b.finish("zero".into()).is_err());

        assert!(TraceBuilder::new().finish("empty".into()).is_err());
    }

    #[test]
    fn duplicate_edges_merge_bytes() {
        let mut b = TraceBuilder::new();
        let a = b.add_task("a", 1e9).unwrap();
        let c = b.add_task("b", 1e9).unwrap();
        b.add_edge(a, c, 100.0).unwrap();
        b.add_edge(a, c, 50.0).unwrap();
        let t = b.finish("dup".into()).unwrap();
        assert_eq!(t.edge_count(), 1);
        assert_eq!(t.edge_bytes[0], 150.0);
    }

    #[test]
    fn dispatch_by_extension() {
        assert!(parse_trace("w.tar.gz", "").is_err());
        // Wrong-format content through the right extension still errors
        // cleanly.
        assert!(parse_trace("w.dax", "{}").is_err());
        assert!(parse_trace("w.json", "<adag/>").is_err());
        assert!(parse_trace("w.dot", "<adag/>").is_err());
    }
}
