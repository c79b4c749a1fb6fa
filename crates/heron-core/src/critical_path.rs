//! Critical-path analysis over a virtual-time trace (see [`sim::trace`]):
//! the one analyzer behind every span-derived Fig. 6 view.
//!
//! A request's trace forms a DAG: the client's `client.request` root span,
//! the ordering layer's `mcast.*` instants, and on every delivering replica
//! an `exec.request` span with `exec.phase2` / `exec.execute` /
//! `exec.phase4` children — all stitched together by the multicast message
//! uid (the events' `corr` key). The analyzer pairs the spans once into a
//! stage table with one row per `exec.request`: ordering, dispatch wait,
//! Phase 2, execute and Phase 4, plus the `pool.park` time nested in each
//! stage. Three views read that table:
//!
//! * [`attribute`] averages the replied rows, reproducing the paper's
//!   Fig. 6 ordering/coordination/execution breakdown purely from spans —
//!   the legacy [`crate::Metrics::mean_breakdown`] counters become a
//!   cross-check for it (they must agree, since the phase spans open and
//!   close at the instants the counters sample).
//! * [`critical_paths`] explains every traced request: it attributes the
//!   client-observed latency to ordering, the executor phases and the
//!   reply/other remainder, with park time carved out of the stage it
//!   interrupted, sorted slowest first.
//! * [`blame_exemplars`] returns the same decomposition for the tail
//!   exemplars the latency histogram retained
//!   ([`crate::metrics::Histogram::exemplars`]).

use sim::trace::{EventKind, TraceEvent};
use std::collections::{BTreeMap, HashMap};

/// A Begin/End pair reassembled from the event stream.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (e.g. `"exec.request"`).
    pub name: &'static str,
    /// Track (process) it ran on.
    pub track: u32,
    /// Span id.
    pub id: u64,
    /// Enclosing span id (0 = top level).
    pub parent: u64,
    /// Begin time, virtual ns.
    pub t0: u64,
    /// End time, virtual ns (= `t0` for spans never closed).
    pub t1: u64,
    /// Correlation key: the max of the begin and end events' `corr`
    /// (`client.request` learns its uid only at multicast return).
    pub corr: u64,
    /// The begin event's args.
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Span duration in virtual ns.
    pub fn dur_ns(&self) -> u64 {
        self.t1.saturating_sub(self.t0)
    }

    /// Looks up a begin-arg by name.
    pub fn arg(&self, name: &str) -> Option<u64> {
        self.args.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Pairs Begin/End events into [`Span`]s (synchronous and flight spans
/// alike). Spans missing their End keep `t1 = t0`.
pub fn spans(events: &[TraceEvent]) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    let mut open: HashMap<u64, usize> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::Begin | EventKind::FlightBegin => {
                open.insert(e.span, out.len());
                out.push(Span {
                    name: e.name,
                    track: e.track,
                    id: e.span,
                    parent: e.parent,
                    t0: e.t_ns,
                    t1: e.t_ns,
                    corr: e.corr,
                    args: e.args.to_vec(),
                });
            }
            EventKind::End | EventKind::FlightEnd => {
                if let Some(&i) = open.get(&e.span) {
                    out[i].t1 = out[i].t1.max(e.t_ns);
                    out[i].corr = out[i].corr.max(e.corr);
                }
            }
            EventKind::Instant => {}
        }
    }
    out
}

/// One `exec.request` span's row of the stage table.
struct StageRow {
    corr: u64,
    partition: Option<u64>,
    partitions: u64,
    /// Earliest `exec.reply` instant on the same track and correlation
    /// key; `None` when this replica never replied (e.g. it served the
    /// request through state transfer).
    replied_at: Option<u64>,
    ordering: u64,
    /// Delivery → executor-pickup dispatch wait (P-SMR pool).
    parallel: u64,
    phase2: u64,
    execute: u64,
    phase4: u64,
    /// `pool.park` ns by (stage interrupted, park label). Park time lies
    /// inside its stage's duration above, not on top of it.
    parks: BTreeMap<(&'static str, &'static str), u64>,
}

/// The segment label of a stage span.
fn stage(name: &str) -> Option<&'static str> {
    match name {
        "exec.phase2" => Some("phase2"),
        "exec.execute" => Some("execute"),
        "exec.phase4" => Some("phase4"),
        _ => None,
    }
}

/// Builds the stage table: one row per `exec.request` span, in span order.
fn stage_table(all: &[Span], events: &[TraceEvent]) -> Vec<StageRow> {
    let mut reply_at: HashMap<(u32, u64), u64> = HashMap::new();
    for e in events {
        if e.kind == EventKind::Instant && e.name == "exec.reply" {
            let t = reply_at.entry((e.track, e.corr)).or_insert(e.t_ns);
            *t = (*t).min(e.t_ns);
        }
    }
    let mut rows = Vec::new();
    let mut row_of: HashMap<u64, usize> = HashMap::new();
    for s in all.iter().filter(|s| s.name == "exec.request") {
        row_of.insert(s.id, rows.len());
        rows.push(StageRow {
            corr: s.corr,
            partition: s.arg("partition"),
            partitions: s.arg("partitions").unwrap_or(0),
            replied_at: reply_at.get(&(s.track, s.corr)).copied(),
            ordering: s.arg("ordering_ns").unwrap_or(0),
            parallel: s.arg("parallel_ns").unwrap_or(0),
            phase2: 0,
            execute: 0,
            phase4: 0,
            parks: BTreeMap::new(),
        });
    }
    let by_id: HashMap<u64, &Span> = all.iter().map(|s| (s.id, s)).collect();
    for s in all {
        let d = s.dur_ns();
        match (s.name, row_of.get(&s.parent)) {
            ("exec.phase2", Some(&r)) => rows[r].phase2 += d,
            ("exec.execute", Some(&r)) => rows[r].execute += d,
            ("exec.phase4", Some(&r)) => rows[r].phase4 += d,
            ("pool.park", _) => {
                if let Some((r, stage)) = park_site(s, &by_id, &row_of) {
                    let label = if s.arg("lagging").unwrap_or(0) != 0 {
                        "park.lagging"
                    } else {
                        "park.phase2_starved"
                    };
                    *rows[r].parks.entry((stage, label)).or_default() += d;
                }
            }
            _ => {}
        }
    }
    rows
}

/// The row a park belongs to — its nearest `exec.request` ancestor — and
/// the stage it interrupted: the nearest stage span on the way up, or the
/// `reply+other` remainder for a park directly under the request.
fn park_site(
    park: &Span,
    by_id: &HashMap<u64, &Span>,
    row_of: &HashMap<u64, usize>,
) -> Option<(usize, &'static str)> {
    let mut interrupted = None;
    // A parent opens before its child and span ids only grow, so the walk
    // climbs strictly decreasing ids and ends.
    let mut cur = *by_id.get(&park.parent)?;
    loop {
        if let Some(&r) = row_of.get(&cur.id) {
            return Some((r, interrupted.unwrap_or("reply+other")));
        }
        interrupted = interrupted.or(stage(cur.name));
        cur = *by_id.get(&cur.parent)?;
    }
}

/// Mean per-stage attribution over the replicas' `exec.request` spans —
/// the trace-derived Fig. 6 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Attribution {
    /// Samples averaged (replied `exec.request` spans).
    pub n: u64,
    /// Mean multicast-submit → delivery, ns.
    pub ordering_ns: u64,
    /// Mean delivery → executor-pickup dispatch wait (P-SMR pool), ns.
    /// Zero on the serial width-1 path. Carried as an `exec.request` arg,
    /// not a child span: dispatch waits of concurrent commands overlap
    /// across workers and would not nest as spans.
    pub parallel_ns: u64,
    /// Mean Phase 2 + Phase 4 barrier time, ns.
    pub coordination_ns: u64,
    /// Mean execution (read + compute + write), ns.
    pub execution_ns: u64,
}

/// Computes the mean stage attribution from a trace, over `exec.request`
/// spans whose replica actually replied (an `exec.reply` instant exists on
/// the same track with the same correlation key — exactly the condition
/// under which the legacy breakdown counter sampled). `partitions` filters
/// by the request's involvement count, like
/// [`crate::Metrics::mean_breakdown`].
pub fn attribute(events: &[TraceEvent], partitions: Option<u16>) -> Attribution {
    attribute_where(events, |p| {
        partitions.map(|f| p == u64::from(f)).unwrap_or(true)
    })
}

/// [`attribute`] with an arbitrary filter over the request's partition
/// count — e.g. `|p| p > 1` for the multi-partition aggregate that
/// [`crate::Metrics::mean_breakdown`]-style summaries report.
pub fn attribute_where(events: &[TraceEvent], keep: impl Fn(u64) -> bool) -> Attribution {
    let mut a = Attribution::default();
    let rows = stage_table(&spans(events), events);
    for r in rows
        .iter()
        .filter(|r| r.replied_at.is_some() && keep(r.partitions))
    {
        a.n += 1;
        a.ordering_ns += r.ordering;
        a.parallel_ns += r.parallel;
        a.coordination_ns += r.phase2 + r.phase4;
        a.execution_ns += r.execute;
    }
    a.ordering_ns = a.ordering_ns.checked_div(a.n).unwrap_or(0);
    a.parallel_ns = a.parallel_ns.checked_div(a.n).unwrap_or(0);
    a.coordination_ns = a.coordination_ns.checked_div(a.n).unwrap_or(0);
    a.execution_ns = a.execution_ns.checked_div(a.n).unwrap_or(0);
    a
}

/// One labelled share of a request's latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Stage or wait-state label (`"ordering"`, `"park.lagging"`, …).
    pub name: &'static str,
    /// Virtual ns attributed to it.
    pub ns: u64,
}

/// A single request's client-observed latency, decomposed along its
/// critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestPath {
    /// The request's multicast uid: the trace's correlation key and the
    /// latency histogram's exemplar tag.
    pub uid: u64,
    /// Partitions the request involved (0 when untraced).
    pub partitions: u64,
    /// End-to-end latency (the `client.request` span), ns.
    pub total_ns: u64,
    /// Segments summing exactly to `total_ns`.
    pub segments: Vec<Segment>,
}

impl RequestPath {
    /// A request with no replied `exec.request` in the trace: one
    /// `untraced` segment covering the whole latency.
    fn untraced(uid: u64, total_ns: u64) -> RequestPath {
        RequestPath {
            uid,
            partitions: 0,
            total_ns,
            segments: vec![Segment {
                name: "untraced",
                ns: total_ns,
            }],
        }
    }
}

impl StageRow {
    /// Decomposes `total_ns` along this row: its stages, then the
    /// `reply+other` remainder. Each park is carved out of the stage it
    /// interrupted into a `park.*` segment after it; park time moves
    /// within a stage, never in or out of the request, so the segments
    /// still sum to `total_ns` and aggregates still match [`attribute`].
    fn path(&self, uid: u64, total_ns: u64) -> RequestPath {
        let accounted = self.ordering + self.parallel + self.phase2 + self.execute + self.phase4;
        let coordinated = self.phase2 + self.phase4 > 0;
        let stages = [
            ("ordering", self.ordering, true),
            ("execute.parallel", self.parallel, self.parallel > 0),
            ("phase2", self.phase2, coordinated),
            ("execute", self.execute, true),
            ("phase4", self.phase4, coordinated),
            ("reply+other", total_ns.saturating_sub(accounted), true),
        ];
        let mut segments = Vec::new();
        for (name, ns, shown) in stages {
            if !shown {
                continue;
            }
            let mut remaining = ns;
            let mut parks = Vec::new();
            for (&(_, label), &park_ns) in self.parks.iter().filter(|((s, _), _)| *s == name) {
                // A stage's parks nest inside it in time, so they cannot
                // exceed it; clamp anyway so the sum invariant is
                // unconditional.
                let take = park_ns.min(remaining);
                remaining -= take;
                if take > 0 {
                    parks.push(Segment {
                        name: label,
                        ns: take,
                    });
                }
            }
            if remaining > 0 || parks.is_empty() {
                segments.push(Segment {
                    name,
                    ns: remaining,
                });
            }
            segments.extend(parks);
        }
        RequestPath {
            uid,
            partitions: self.partitions,
            total_ns,
            segments,
        }
    }
}

/// Decomposes every traced request's end-to-end latency, slowest first.
///
/// The client waits for one reply per involved partition; the path shown
/// follows the *home* (lowest) partition's earliest-replying replica —
/// the replica whose reply the client-perceived latency actually tracks —
/// through ordering, the Phase 2 barrier, execution and the Phase 4
/// barrier, with everything else (reply flight, client polling, skew
/// against slower partitions) as the `reply+other` remainder. Parks of
/// P-SMR pool workers appear as `park.phase2_starved` / `park.lagging`
/// segments carved out of the stage they interrupted.
pub fn critical_paths(events: &[TraceEvent]) -> Vec<RequestPath> {
    let all = spans(events);
    let rows = stage_table(&all, events);
    let mut home: HashMap<u64, &StageRow> = HashMap::new();
    for r in &rows {
        if r.corr == 0 || r.replied_at.is_none() {
            continue;
        }
        let better = home
            .get(&r.corr)
            .is_none_or(|cur| (r.partition, r.replied_at) < (cur.partition, cur.replied_at));
        if better {
            home.insert(r.corr, r);
        }
    }
    let mut out: Vec<RequestPath> = all
        .iter()
        .filter(|s| s.name == "client.request" && s.corr != 0)
        .map(|root| match home.get(&root.corr) {
            Some(h) => h.path(root.corr, root.dur_ns()),
            None => RequestPath::untraced(root.corr, root.dur_ns()),
        })
        .collect();
    out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.uid.cmp(&b.uid)));
    out
}

/// Explains histogram exemplars (`(latency_ns, uid)` pairs, as returned by
/// [`crate::metrics::Histogram::exemplars`]) against a trace: each is its
/// [`critical_paths`] entry. Exemplars whose uid never shows up in the
/// trace come back with one `untraced` segment covering the whole
/// latency, so the output always decomposes every input, in input order.
pub fn blame_exemplars(events: &[TraceEvent], exemplars: &[(u64, u64)]) -> Vec<RequestPath> {
    let paths = critical_paths(events);
    let by_uid: HashMap<u64, &RequestPath> = paths.iter().map(|p| (p.uid, p)).collect();
    exemplars
        .iter()
        .map(|&(latency_ns, uid)| match by_uid.get(&uid) {
            Some(p) => (*p).clone(),
            None => RequestPath::untraced(uid, latency_ns),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        kind: EventKind,
        t_ns: u64,
        track: u32,
        span: u64,
        parent: u64,
        name: &'static str,
        corr: u64,
        args: &[(&'static str, u64)],
    ) -> TraceEvent {
        TraceEvent {
            t_ns,
            track,
            span,
            parent,
            kind,
            name,
            corr,
            args: sim::trace::SpanArgs::from_slice(args),
        }
    }

    fn by_name(p: &RequestPath) -> Vec<(&'static str, u64)> {
        p.segments.iter().map(|s| (s.name, s.ns)).collect()
    }

    /// A hand-built two-partition request: client latency 100, ordering
    /// 30, phase2 10, execute 25, phase4 15 at the home partition.
    fn sample_events() -> Vec<TraceEvent> {
        use EventKind::{Begin, End, Instant};
        vec![
            // Client root span: corr attached at end.
            ev(Begin, 0, 9, 1, 0, "client.request", 0, &[("client", 7)]),
            // Home partition (0), track 2.
            ev(
                Begin,
                30,
                2,
                2,
                0,
                "exec.request",
                5,
                &[("partition", 0), ("partitions", 2), ("ordering_ns", 30)],
            ),
            ev(Begin, 30, 2, 3, 2, "exec.phase2", 5, &[]),
            ev(End, 40, 2, 3, 2, "exec.phase2", 5, &[]),
            ev(Begin, 40, 2, 4, 2, "exec.execute", 5, &[]),
            ev(End, 65, 2, 4, 2, "exec.execute", 5, &[]),
            ev(Begin, 65, 2, 5, 2, "exec.phase4", 5, &[]),
            ev(End, 80, 2, 5, 2, "exec.phase4", 5, &[]),
            ev(Instant, 81, 2, 0, 2, "exec.reply", 5, &[]),
            ev(End, 82, 2, 2, 0, "exec.request", 5, &[]),
            // Other partition (1), track 4: slower, still replies.
            ev(
                Begin,
                35,
                4,
                6,
                0,
                "exec.request",
                5,
                &[("partition", 1), ("partitions", 2), ("ordering_ns", 35)],
            ),
            ev(Begin, 35, 4, 7, 6, "exec.phase2", 5, &[]),
            ev(End, 50, 4, 7, 6, "exec.phase2", 5, &[]),
            ev(Begin, 50, 4, 8, 6, "exec.execute", 5, &[]),
            ev(End, 70, 4, 8, 6, "exec.execute", 5, &[]),
            ev(Begin, 70, 4, 9, 6, "exec.phase4", 5, &[]),
            ev(End, 90, 4, 9, 6, "exec.phase4", 5, &[]),
            ev(Instant, 91, 4, 0, 6, "exec.reply", 5, &[]),
            ev(End, 92, 4, 6, 0, "exec.request", 5, &[]),
            // Client sees the reply at 100; corr learned by then.
            ev(End, 100, 9, 1, 0, "client.request", 5, &[]),
        ]
    }

    /// One traced request (latency 100) whose phase2 contains a 6ns
    /// starvation park and whose execute contains a 4ns lagging park.
    fn parked_trace() -> Vec<TraceEvent> {
        use EventKind::{Begin, End, Instant};
        vec![
            ev(Begin, 0, 9, 1, 0, "client.request", 0, &[]),
            ev(
                Begin,
                30,
                2,
                2,
                0,
                "exec.request",
                5,
                &[("partition", 0), ("partitions", 2), ("ordering_ns", 30)],
            ),
            ev(Begin, 30, 2, 3, 2, "exec.phase2", 5, &[]),
            ev(Begin, 32, 2, 10, 3, "pool.park", 0, &[("lagging", 0)]),
            ev(End, 38, 2, 10, 3, "pool.park", 0, &[]),
            ev(End, 40, 2, 3, 2, "exec.phase2", 5, &[]),
            ev(Begin, 40, 2, 4, 2, "exec.execute", 5, &[]),
            ev(Begin, 50, 2, 11, 4, "pool.park", 0, &[("lagging", 1)]),
            ev(End, 54, 2, 11, 4, "pool.park", 0, &[]),
            ev(End, 65, 2, 4, 2, "exec.execute", 5, &[]),
            ev(Begin, 65, 2, 5, 2, "exec.phase4", 5, &[]),
            ev(End, 80, 2, 5, 2, "exec.phase4", 5, &[]),
            ev(Instant, 81, 2, 0, 2, "exec.reply", 5, &[]),
            ev(End, 82, 2, 2, 0, "exec.request", 5, &[]),
            ev(End, 100, 9, 1, 0, "client.request", 5, &[]),
        ]
    }

    #[test]
    fn spans_pair_begin_and_end() {
        let s = spans(&sample_events());
        let root = s.iter().find(|s| s.name == "client.request").unwrap();
        assert_eq!(root.dur_ns(), 100);
        assert_eq!(root.corr, 5, "corr taken from the end event");
        let p2 = s
            .iter()
            .find(|s| s.name == "exec.phase2" && s.track == 2)
            .unwrap();
        assert_eq!((p2.parent, p2.dur_ns()), (2, 10));
    }

    #[test]
    fn attribution_averages_replied_requests() {
        let a = attribute(&sample_events(), Some(2));
        assert_eq!(a.n, 2);
        assert_eq!(a.ordering_ns, (30 + 35) / 2);
        assert_eq!(a.coordination_ns, (10 + 15 + 15 + 20) / 2);
        assert_eq!(a.execution_ns, (25 + 20) / 2);
        // No single-partition samples in this trace.
        assert_eq!(attribute(&sample_events(), Some(1)).n, 0);
    }

    #[test]
    fn unreplied_requests_are_excluded() {
        let mut events = sample_events();
        events.retain(|e| !(e.name == "exec.reply" && e.track == 4));
        let a = attribute(&events, None);
        assert_eq!(a.n, 1, "track 4 never replied (state transfer path)");
        assert_eq!(a.ordering_ns, 30);
    }

    #[test]
    fn critical_path_follows_home_partition() {
        let paths = critical_paths(&sample_events());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!((p.uid, p.total_ns, p.partitions), (5, 100, 2));
        assert_eq!(
            by_name(p),
            [
                ("ordering", 30),
                ("phase2", 10),
                ("execute", 25),
                ("phase4", 15),
                ("reply+other", 20)
            ]
        );
        let sum: u64 = p.segments.iter().map(|s| s.ns).sum();
        assert_eq!(sum, p.total_ns, "segments account for the whole latency");
    }

    /// With an executor pool the `exec.request` span carries a
    /// `parallel_ns` arg (dispatch wait); it must surface as its own
    /// segment and the decomposition must still sum exactly.
    #[test]
    fn parallel_wait_is_attributed_and_sums_exactly() {
        use EventKind::{Begin, End, Instant};
        let events = vec![
            ev(Begin, 0, 9, 1, 0, "client.request", 0, &[]),
            ev(
                Begin,
                42,
                2,
                2,
                0,
                "exec.request",
                5,
                &[
                    ("partition", 0),
                    ("partitions", 1),
                    ("ordering_ns", 30),
                    ("parallel_ns", 12),
                ],
            ),
            ev(Begin, 42, 2, 3, 2, "exec.execute", 5, &[]),
            ev(End, 67, 2, 3, 2, "exec.execute", 5, &[]),
            ev(Instant, 68, 2, 0, 2, "exec.reply", 5, &[]),
            ev(End, 69, 2, 2, 0, "exec.request", 5, &[]),
            ev(End, 100, 9, 1, 0, "client.request", 5, &[]),
        ];
        let a = attribute(&events, Some(1));
        assert_eq!((a.n, a.ordering_ns, a.parallel_ns), (1, 30, 12));
        let paths = critical_paths(&events);
        let p = &paths[0];
        assert_eq!(
            by_name(p),
            [
                ("ordering", 30),
                ("execute.parallel", 12),
                ("execute", 25),
                ("reply+other", 33)
            ]
        );
        let sum: u64 = p.segments.iter().map(|s| s.ns).sum();
        assert_eq!(sum, p.total_ns);
    }

    #[test]
    fn parks_are_carved_out_of_their_stage() {
        let blamed = blame_exemplars(&parked_trace(), &[(100, 5)]);
        assert_eq!(blamed.len(), 1);
        let b = &blamed[0];
        assert_eq!((b.uid, b.total_ns), (5, 100));
        assert_eq!(
            by_name(b),
            [
                ("ordering", 30),
                ("phase2", 4),
                ("park.phase2_starved", 6),
                ("execute", 21),
                ("park.lagging", 4),
                ("phase4", 15),
                ("reply+other", 20),
            ]
        );
    }

    #[test]
    fn segments_sum_exactly_to_latency() {
        for b in blame_exemplars(&parked_trace(), &[(100, 5)]) {
            let sum: u64 = b.segments.iter().map(|s| s.ns).sum();
            assert_eq!(sum, b.total_ns);
            assert_eq!(b.total_ns, 100, "the exemplar's latency");
        }
    }

    #[test]
    fn carving_preserves_the_aggregate_breakdown() {
        // Moving park time within a stage must not change what
        // `attribute` reports per stage.
        let events = parked_trace();
        let a = attribute(&events, None);
        let b = &blame_exemplars(&events, &[(100, 5)])[0];
        let phase2: u64 = b
            .segments
            .iter()
            .filter(|s| s.name == "phase2" || s.name == "park.phase2_starved")
            .map(|s| s.ns)
            .sum();
        let execute: u64 = b
            .segments
            .iter()
            .filter(|s| s.name == "execute" || s.name == "park.lagging")
            .map(|s| s.ns)
            .sum();
        assert_eq!(phase2, 10);
        assert_eq!(execute, 25);
        assert_eq!(a.execution_ns, 25);
    }

    #[test]
    fn untraced_exemplars_fall_back_to_one_segment() {
        let blamed = blame_exemplars(&[], &[(77, 42)]);
        assert_eq!(blamed.len(), 1);
        assert_eq!(blamed[0].segments.len(), 1);
        assert_eq!(blamed[0].segments[0].name, "untraced");
        assert_eq!(blamed[0].segments[0].ns, 77);
    }

    /// Exemplar blame is the all-requests view restricted to the exemplar
    /// uids: each entry equals the `critical_paths` entry for its uid.
    #[test]
    fn exemplars_are_their_critical_paths() {
        for events in [sample_events(), parked_trace()] {
            let paths = critical_paths(&events);
            let exemplars: Vec<(u64, u64)> = paths.iter().map(|p| (p.total_ns, p.uid)).collect();
            assert!(!exemplars.is_empty());
            assert_eq!(blame_exemplars(&events, &exemplars), paths);
        }
    }
}
