//! Exporters: Chrome trace-event JSON, flat metrics JSON, and ASCII
//! per-node timelines.
//!
//! All JSON is hand-rolled — the workspace deliberately omits `serde`
//! (DESIGN §7); the formats here are small enough that a formatter and
//! an escaping function cover them. Every document (the metrics JSON
//! here, the `BENCH_*.json` studies, the race and staleness artifacts)
//! is a [`Json`] tree written by [`json_document`]; the Chrome
//! trace, one object per event, writes a fixed frame around each event's
//! payload, which is a `Json` object like the rest.
//!
//! How a kind is shown (its name, its Chrome `args`, its timeline glyph,
//! priority and legend word) and how it is counted (the counters and
//! histograms it feeds) is one row of the private `kinds!` table.

use std::borrow::Borrow;
use std::fmt::{self, Write as _};

use crate::event::{Event, EventKind, FaultKind};
use crate::metrics::{bucket_hi, bucket_lo, Histogram, Metrics};

/// Escapes `s` for inclusion inside a JSON string literal (without the
/// surrounding quotes).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let _ = write_escaped(&mut out, s);
    out
}

fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    // Clean runs are copied whole; only the characters between them are
    // spelled out.
    let mut rest = s;
    while let Some(at) = rest.find(|c: char| matches!(c, '"' | '\\' | '\0'..='\x1f')) {
        out.write_str(&rest[..at])?;
        match rest.as_bytes()[at] {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            0x08 => out.write_str("\\b")?,
            0x0c => out.write_str("\\f")?,
            control => write!(out, "\\u{control:04x}")?,
        }
        rest = &rest[at + 1..];
    }
    out.write_str(rest)
}

/// A JSON value: what [`json_document`] writes.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A float with a fixed number of decimals (`None`: Rust's shortest
    /// form, `0.25` or `1`). Non-finite values, which JSON cannot hold,
    /// are written as `null`.
    Float(f64, Option<usize>),
    /// A string, escaped by `json_escape` when written.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; fields keep their order.
    Object(Vec<(&'static str, Json)>),
}

macro_rules! json_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::UInt(v as u64)
            }
        }
    )*};
}
json_from_uint!(u16, u32, u64, usize);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<FaultKind> for Json {
    fn from(v: FaultKind) -> Json {
        v.name().into()
    }
}

/// The inline form: `{"k": 1, "v": [2, 3]}`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => fmt::Display::fmt(b, f),
            Json::UInt(n) => fmt::Display::fmt(n, f),
            Json::Float(v, _) if !v.is_finite() => f.write_str("null"),
            Json::Float(v, Some(decimals)) => write!(f, "{v:.decimals$}"),
            Json::Float(v, None) => write!(f, "{v}"),
            Json::Str(s) => {
                f.write_str("\"")?;
                write_escaped(f, s)?;
                f.write_str("\"")
            }
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i == 0 { "" } else { ", " })?;
                }
                f.write_str("]")
            }
            Json::Object(fields) => fmt::Display::fmt(&Fields(fields), f),
        }
    }
}

/// The fields of a [`Json::Object`], borrowed: lets [`chrome_trace`] print
/// each event's payload from one reused buffer.
struct Fields<'a>(&'a [(&'static str, Json)]);

impl fmt::Display for Fields<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (key, value)) in self.0.iter().enumerate() {
            f.write_str(if i == 0 { "\"" } else { ", \"" })?;
            write_escaped(f, key)?;
            f.write_str("\": ")?;
            fmt::Display::fmt(value, f)?;
        }
        f.write_str("}")
    }
}

/// Writes `fields` as one JSON document in the layout every report
/// shares: a top-level field per line, the elements of a top-level array
/// one per line below it, everything deeper inline. The values may be
/// owned or borrowed.
pub fn json_document<V: Borrow<Json>>(fields: &[(&'static str, V)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        let _ = write!(out, "{}\n  \"{}\": ", if i == 0 { "" } else { "," }, json_escape(key));
        match value.borrow() {
            Json::Array(items) if !items.is_empty() => {
                out.push('[');
                for (j, item) in items.iter().enumerate() {
                    let _ = write!(out, "{}\n    {item}", if j == 0 { "" } else { "," });
                }
                out.push_str("\n  ]");
            }
            inline => {
                let _ = write!(out, "{inline}");
            }
        }
    }
    out.push_str("\n}\n");
    out
}

/// How one event kind is shown by every exporter.
#[derive(Clone, Copy)]
pub(crate) struct Shown {
    /// The variant's name (`EventKind::name`, the Chrome event name).
    pub(crate) name: &'static str,
    /// Timeline glyph.
    glyph: char,
    /// Timeline priority: a later event in the same cell wins only
    /// against glyphs of lower or equal priority.
    priority: u8,
    /// Word explaining the glyph in the timeline legend.
    legend: &'static str,
}

/// What one event adds to a counter: an unsigned field adds its value; a
/// `bool` counts the event when it holds and leaves the counter untouched
/// when it does not (so a counter nothing moved is not exported).
trait Tally {
    fn tally(self) -> Option<u64>;
}

impl Tally for bool {
    fn tally(self) -> Option<u64> {
        self.then_some(1)
    }
}

macro_rules! tally_uint {
    ($($t:ty),*) => {$(
        impl Tally for $t {
            fn tally(self) -> Option<u64> {
                Some(u64::from(self))
            }
        }
    )*};
}
tally_uint!(u32, u64);

/// The one table of how each [`EventKind`] is shown and counted. A row is
///
/// ```text
/// Variant { fields } => glyph priority "legend",
///     events_counter [counter: value, ...] [histogram: sample, ...],
/// ```
///
/// Every event adds 1 to its row's events counter and [`Tally`]s each
/// value into the counter beside it; each sample is recorded into the
/// histogram of that name. The names are the keys `metrics_json` writes,
/// and [`COUNTERS`]/[`HISTOGRAMS`] are exactly the names the rows declare.
/// A variant's fields are listed in declaration order (a test compares
/// them with the `Debug` form); they become the Chrome `args`.
macro_rules! kinds {
    ($(
        $variant:ident { $($field:ident),* } => $glyph:literal $pri:literal $legend:literal,
            $events:ident [$($counter:ident: $value:expr),* $(,)?] [$($hist:ident: $sample:expr),*],
    )*) => {
        /// Every counter name a row of the table declares.
        pub(crate) const COUNTERS: &[&str] = &[$(stringify!($events), $(stringify!($counter),)*)*];

        /// Every histogram name a row of the table declares.
        pub(crate) const HISTOGRAMS: &[&str] = &[$($(stringify!($hist),)*)*];

        /// How `kind` is shown. When `args` is given the payload is
        /// appended to it as `(field name, value)` pairs, keys taken from
        /// the field identifiers.
        pub(crate) fn shown(kind: &EventKind, args: Option<&mut Vec<(&'static str, Json)>>) -> Shown {
            match *kind {$(
                EventKind::$variant { $($field),* } => {
                    if let Some(args) = args {
                        args.extend([$((stringify!($field), Json::from($field))),*]);
                    }
                    Shown {
                        name: stringify!($variant),
                        glyph: $glyph,
                        priority: $pri,
                        legend: $legend,
                    }
                }
            )*}
        }

        /// Adds `kind` to the counters and histograms its row names.
        #[inline]
        pub(crate) fn count(kind: &EventKind, metrics: &mut Metrics) {
            match *kind {$(
                #[allow(unused_variables, reason = "a row counts only some of its fields")]
                EventKind::$variant { $($field),* } => {
                    metrics.add(stringify!($events), 1);
                    $(if let Some(v) = Tally::tally($value) {
                        metrics.add(stringify!($counter), v);
                    })*
                    $(metrics.record(stringify!($hist), u64::from($sample));)*
                }
            )*}
        }
    };
}

kinds! {
    PacketSent { dst, payload_bytes, wire_bytes, hops } => 'S' 4 "sent",
        packets_sent [bytes_sent: payload_bytes, wire_bytes_sent: wire_bytes]
        [packet_size_bytes: payload_bytes, hop_distance: hops],
    PacketDelivered { src, payload_bytes, latency_ns, queue_depth } => 'D' 3 "delivered",
        packets_delivered [bytes_delivered: payload_bytes]
        [latency_ns: latency_ns, queue_depth: queue_depth],
    ChannelContended { channel, stall_ns } => 'C' 5 "contention",
        contention_events [contention_ns: stall_ns] [stall_ns: stall_ns],
    WireRouted { wire, cells } => 'W' 6 "routed",
        wires_routed [route_cells: cells] [route_cells: cells],
    RipUp { wire, cells } => 'X' 7 "ripup",
        rip_ups [ripped_cells: cells] [],
    MemRequest { resource, bytes, critical } => 'm' 1 "mem-req",
        mem_requests [mem_critical_requests: critical, mem_request_bytes: bytes]
        [mem_request_bytes: bytes],
    PhaseBegin { name } => '|' 0 "phase",
        phases_begun [] [],
    PhaseEnd { name } => '|' 0 "phase",
        phases_ended [] [],
    ReplicaAudit { diverged_cells, max_divergence, mean_age_ns } => 'A' 2 "audit",
        replica_audits [stale_cells: diverged_cells]
        [stale_cells: diverged_cells, stale_age_ns: mean_age_ns],
    FaultInjected { dst, payload_bytes, fault, extra_ns } => 'F' 6 "fault",
        faults_injected [
            packets_dropped: fault == FaultKind::Drop,
            packets_duplicated: fault == FaultKind::Duplicate,
            packets_delayed: fault == FaultKind::Delay,
            packets_reordered: fault == FaultKind::Reorder,
        ] [],
    PacketRetransmitted { dst, seq, attempt } => 'T' 4 "resent",
        packets_retransmitted [] [],
    AckSent { dst, cum_seq } => 'a' 1 "ack",
        acks_sent [] [],
    WatchdogRecovery { wire } => 'G' 8 "watchdog",
        watchdog_recoveries [] [],
    NodeCrashed { will_restart } => '!' 9 "crash",
        node_crashes [] [],
    NodeRestarted { downtime_ns } => '^' 9 "restart",
        node_restarts [] [],
    CheckpointTaken { bytes } => 'c' 2 "ckpt",
        checkpoints_taken [checkpoint_bytes: bytes] [],
    WireReassigned { wire, from, to } => 'N' 8 "reassigned",
        wires_reassigned [] [],
    CoordinatorFailover { new_coordinator } => 'O' 9 "failover",
        coordinator_failovers [] [],
}

/// Renders `events` in the Chrome `chrome://tracing` trace-event format:
/// a JSON array of event objects, loadable directly by `chrome://tracing`
/// or Perfetto.
///
/// Mapping: each node becomes a thread (`tid`) of one process;
/// [`EventKind::PhaseBegin`]/[`EventKind::PhaseEnd`] become duration
/// slices (`ph: "B"/"E"`), everything else becomes a thread-scoped
/// instant event (`ph: "i"`) whose payload rides in `args`. Timestamps
/// are microseconds as the format requires.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 140 + 64);
    out.push('[');
    let mut sep = "";

    // Name the threads after their nodes so traces are self-describing.
    if let Some(max) = events.iter().map(|e| e.node).max() {
        for n in 0..=max {
            let thread = Json::Object(vec![
                ("name", "thread_name".into()),
                ("ph", "M".into()),
                ("pid", 0u32.into()),
                ("tid", n.into()),
                ("args", Json::Object(vec![("name", format!("node {n}").into())])),
            ]);
            let _ = write!(out, "{sep}\n  {thread}");
            sep = ",";
        }
    }

    // One args buffer for the whole trace; the frame around it is fixed.
    let mut args = Vec::new();
    for ev in events {
        args.clear();
        let name = shown(&ev.kind, Some(&mut args)).name;
        let (ts, tid) = (ev.at_ns as f64 / 1000.0, ev.node);
        let phase = match ev.kind {
            EventKind::PhaseBegin { .. } => Some('B'),
            EventKind::PhaseEnd { .. } => Some('E'),
            _ => None,
        };
        let _ = match phase {
            // A slice is named after the phase, its one payload field.
            Some(ph) => write!(
                out,
                "{sep}\n  {{\"name\": {}, \"cat\": \"phase\", \"ph\": \"{ph}\", \"ts\": {ts:.3}, \
                 \"pid\": 0, \"tid\": {tid}}}",
                args[0].1,
            ),
            None => write!(
                out,
                "{sep}\n  {{\"name\": \"{name}\", \"cat\": \"event\", \"ph\": \"i\", \"s\": \"t\", \
                 \"ts\": {ts:.3}, \"pid\": 0, \"tid\": {tid}, \"args\": {}}}",
                Fields(&args),
            ),
        };
        sep = ",";
    }
    out.push_str("\n]\n");
    out
}

fn histogram_json(h: &Histogram) -> Json {
    let buckets =
        h.buckets().iter().enumerate().filter(|&(_, &count)| count > 0).map(|(i, &count)| {
            Json::Object(vec![
                ("lo", bucket_lo(i).into()),
                ("hi", bucket_hi(i).into()),
                ("count", count.into()),
            ])
        });
    Json::Object(vec![
        ("count", h.count().into()),
        ("sum", h.sum().into()),
        ("min", h.min().unwrap_or(0).into()),
        ("max", h.max().unwrap_or(0).into()),
        ("mean", Json::Float(h.mean(), Some(3))),
        ("p50", h.quantile(0.5).into()),
        ("p90", h.quantile(0.9).into()),
        ("p99", h.quantile(0.99).into()),
        ("buckets", Json::Array(buckets.collect())),
    ])
}

/// Renders a metrics registry as a flat JSON object:
/// `{"counters": {...}, "histograms": {...}}`.
pub fn metrics_json(metrics: &Metrics) -> String {
    let counters = metrics.counters.iter().map(|(&name, &v)| (name, v.into())).collect();
    let histograms =
        metrics.histograms.iter().map(|(&name, h)| (name, histogram_json(h))).collect();
    json_document(&[("counters", Json::Object(counters)), ("histograms", Json::Object(histograms))])
}

/// Renders an ASCII per-node timeline plus a per-node summary table.
///
/// Time is scaled onto `width` columns; each cell shows the glyph of the
/// highest-priority event that landed in it, and the legend line explains
/// exactly the glyphs the rows show, in order of first appearance.
pub fn ascii_timeline(events: &[Event], width: usize) -> String {
    let width = width.max(10);
    if events.is_empty() {
        return "(no events)\n".to_string();
    }
    let n_nodes = events.iter().map(|e| e.node).max().expect("events nonempty") as usize + 1;
    let t_max = events.iter().map(|e| e.at_ns).max().expect("events nonempty").max(1);

    let mut rows = vec![vec![None::<Shown>; width]; n_nodes];
    let mut sent = vec![0u64; n_nodes];
    let mut bytes = vec![0u64; n_nodes];
    let mut routed = vec![0u64; n_nodes];
    let mut ripped = vec![0u64; n_nodes];
    let mut total = vec![0u64; n_nodes];

    for ev in events {
        let node = ev.node as usize;
        let col = ((ev.at_ns as u128 * (width as u128 - 1)) / t_max as u128) as usize;
        let show = shown(&ev.kind, None);
        if rows[node][col].is_none_or(|cell| show.priority >= cell.priority) {
            rows[node][col] = Some(show);
        }
        total[node] += 1;
        match ev.kind {
            EventKind::PacketSent { payload_bytes, .. } => {
                sent[node] += 1;
                bytes[node] += payload_bytes as u64;
            }
            EventKind::WireRouted { .. } => routed[node] += 1,
            EventKind::RipUp { .. } => ripped[node] += 1,
            _ => {}
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "timeline 0..{t_max} ns ({width} cols)");
    let mut legend: Vec<Shown> = Vec::new();
    for (n, row) in rows.iter().enumerate() {
        let line: String = row.iter().map(|cell| cell.map_or(' ', |s| s.glyph)).collect();
        let _ = writeln!(out, "node {n:>3} |{line}|");
        for show in row.iter().flatten() {
            if legend.iter().all(|seen| seen.glyph != show.glyph) {
                legend.push(*show);
            }
        }
    }
    let legend: Vec<String> = legend.iter().map(|s| format!("{} {}", s.glyph, s.legend)).collect();
    let _ = writeln!(out, "legend: {}\n", legend.join("  "));
    let _ = writeln!(
        out,
        "{:>5} {:>8} {:>8} {:>8} {:>12} {:>8}",
        "node", "events", "routed", "ripups", "bytes_sent", "packets"
    );
    for n in 0..n_nodes {
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>8} {:>8} {:>12} {:>8}",
            n, total[n], routed[n], ripped[n], bytes[n], sent[n]
        );
    }
    out
}

/// Checks that `s` is one syntactically valid JSON value (with optional
/// trailing whitespace). Returns the parse error position and message on
/// failure.
///
/// This is a validator, not a parser — exporter tests and callers use it
/// to guarantee the hand-rolled output is loadable.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }
    fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
        skip_ws(b, pos);
        let Some(&c) = b.get(*pos) else {
            return Err(format!("unexpected end of input at {pos}"));
        };
        match c {
            b'{' => {
                *pos += 1;
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(());
                }
                loop {
                    skip_ws(b, pos);
                    string(b, pos)?;
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return Err(format!("expected ':' at {pos}"));
                    }
                    *pos += 1;
                    value(b, pos)?;
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or '}}' at {pos}")),
                    }
                }
            }
            b'[' => {
                *pos += 1;
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(());
                }
                loop {
                    value(b, pos)?;
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or ']' at {pos}")),
                    }
                }
            }
            b'"' => string(b, pos),
            b't' => literal(b, pos, "true"),
            b'f' => literal(b, pos, "false"),
            b'n' => literal(b, pos, "null"),
            b'-' | b'0'..=b'9' => number(b, pos),
            other => Err(format!("unexpected byte {:?} at {pos}", other as char)),
        }
    }
    fn literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit} at {pos}"))
        }
    }
    fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at {pos}"));
        }
        *pos += 1;
        while let Some(&c) = b.get(*pos) {
            match c {
                b'"' => {
                    *pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                        Some(b'u') => {
                            for i in 1..=4 {
                                if !b.get(*pos + i).is_some_and(u8::is_ascii_hexdigit) {
                                    return Err(format!("bad \\u escape at {pos}"));
                                }
                            }
                            *pos += 5;
                        }
                        _ => return Err(format!("bad escape at {pos}")),
                    }
                }
                0x00..=0x1f => return Err(format!("raw control char in string at {pos}")),
                _ => *pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }
    fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        let digits = |b: &[u8], pos: &mut usize| {
            let s = *pos;
            while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            *pos > s
        };
        if !digits(b, pos) {
            return Err(format!("bad number at {start}"));
        }
        if b.get(*pos) == Some(&b'.') {
            *pos += 1;
            if !digits(b, pos) {
                return Err(format!("bad fraction at {start}"));
            }
        }
        if matches!(b.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(b.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            if !digits(b, pos) {
                return Err(format!("bad exponent at {start}"));
            }
        }
        Ok(())
    }

    value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at {pos}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn sample_events() -> Vec<Event> {
        vec![
            Event { at_ns: 0, node: 0, kind: EventKind::PhaseBegin { name: "iteration" } },
            Event {
                at_ns: 100,
                node: 0,
                kind: EventKind::PacketSent { dst: 1, payload_bytes: 40, wire_bytes: 44, hops: 2 },
            },
            Event {
                at_ns: 600,
                node: 1,
                kind: EventKind::PacketDelivered {
                    src: 0,
                    payload_bytes: 40,
                    latency_ns: 500,
                    queue_depth: 1,
                },
            },
            Event { at_ns: 700, node: 1, kind: EventKind::RipUp { wire: 3, cells: 12 } },
            Event { at_ns: 900, node: 1, kind: EventKind::WireRouted { wire: 3, cells: 14 } },
            Event {
                at_ns: 950,
                node: 0,
                kind: EventKind::ChannelContended { channel: 2, stall_ns: 30 },
            },
            Event {
                at_ns: 960,
                node: 2,
                kind: EventKind::MemRequest { resource: 1, bytes: 8, critical: true },
            },
            Event {
                at_ns: 990,
                node: 2,
                kind: EventKind::ReplicaAudit {
                    diverged_cells: 5,
                    max_divergence: 2,
                    mean_age_ns: 1200,
                },
            },
            Event { at_ns: 1000, node: 0, kind: EventKind::PhaseEnd { name: "iteration" } },
        ]
    }

    #[test]
    fn escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{08}\u{0c}\r"), "\\b\\f\\r");
        assert_eq!(json_escape("\u{01}"), "\\u0001");
        assert_eq!(json_escape("unicode ✓ kept"), "unicode ✓ kept");
    }

    #[test]
    fn escaped_strings_validate_as_json() {
        for nasty in ["a\"b\\c", "\n\r\t", "\u{01}\u{1f}", "mixed ✓ \"x\"\n"] {
            let json = format!("\"{}\"", json_escape(nasty));
            validate_json(&json).unwrap_or_else(|e| panic!("{nasty:?} -> {e}"));
        }
    }

    #[test]
    fn document_layout_is_pinned_and_always_valid() {
        let doc = json_document(&[
            ("name", "tab\there \"quoted\" \u{1}".into()),
            ("n", 3u64.into()),
            ("ratio", Json::Float(0.126, Some(2))),
            ("load", Json::Float(4.0, None)),
            ("knee", Json::Null),
            ("nan", Json::Float(f64::NAN, Some(3))),
            ("nested", Json::Object(vec![("ok", true.into()), ("ids", Json::Array(vec![]))])),
            ("none", Json::Array(vec![])),
            (
                "rows",
                Json::Array(vec![
                    Json::Object(vec![("k", "a\\b".into()), ("v", Json::Array(vec![1u32.into()]))]),
                    Json::Object(vec![("k", "line\nbreak".into()), ("v", Json::Null)]),
                ]),
            ),
        ]);
        validate_json(&doc).expect("the one writer must always emit valid JSON");
        assert_eq!(
            doc,
            "{\n  \"name\": \"tab\\there \\\"quoted\\\" \\u0001\",\n  \"n\": 3,\n  \
             \"ratio\": 0.13,\n  \"load\": 4,\n  \"knee\": null,\n  \"nan\": null,\n  \
             \"nested\": {\"ok\": true, \"ids\": []},\n  \"none\": [],\n  \"rows\": [\n    \
             {\"k\": \"a\\\\b\", \"v\": [1]},\n    {\"k\": \"line\\nbreak\", \"v\": null}\n  ]\n}\n"
        );
        validate_json(&json_document::<Json>(&[])).expect("an empty document is an empty object");
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json("[]").unwrap();
        validate_json(" {\"a\": [1, 2.5, -3e4, true, false, null, \"s\"]} ").unwrap();
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1] extra").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("01").is_err() || validate_json("01").is_ok()); // lenient on leading zeros
    }

    #[test]
    fn chrome_trace_is_valid_json_array() {
        let trace = chrome_trace(&sample_events());
        validate_json(&trace).expect("chrome trace must be valid JSON");
        assert!(trace.trim_start().starts_with('['));
        assert!(trace.trim_end().ends_with(']'));
        assert!(trace.contains("\"ph\": \"B\""));
        assert!(trace.contains("\"ph\": \"E\""));
        assert!(trace.contains("\"ph\": \"i\""));
        assert!(trace.contains("\"tid\": 2"));
    }

    #[test]
    fn chrome_trace_of_nothing_is_empty_array() {
        validate_json(&chrome_trace(&[])).unwrap();
    }

    #[test]
    fn metrics_json_is_valid_and_carries_counters() {
        let mut m = Metrics::new();
        for ev in sample_events() {
            count(&ev.kind, &mut m);
        }
        let json = metrics_json(&m);
        validate_json(&json).expect("metrics JSON must be valid");
        assert!(json.contains("\"bytes_sent\": 40"));
        assert!(json.contains("\"latency_ns\""));
        assert_eq!(m.counter("mem_critical_requests"), 1);
    }

    /// One event of every kind, one per timeline column and three nodes.
    fn every_kind() -> Vec<Event> {
        let kinds = crate::event::tests::all_kinds();
        let at = |i| Event { at_ns: 100 * i as u64, node: i as u32 % 3, kind: kinds[i] };
        (0..kinds.len()).map(at).collect()
    }

    #[test]
    fn chrome_args_keys_are_the_field_names_in_declaration_order() {
        for ev in every_kind() {
            let mut args = Vec::new();
            shown(&ev.kind, Some(&mut args));
            let keys: Vec<&str> = args.iter().map(|(key, _)| *key).collect();
            // `Variant { a: 1, b: 2 }`: a field name is what precedes a colon.
            let debug = format!("{:?}", ev.kind);
            let fields: Vec<&str> =
                debug.split([' ', '{']).filter_map(|word| word.strip_suffix(':')).collect();
            assert_eq!(keys, fields, "{debug}");
            // The line an instant event becomes carries exactly those keys.
            if !matches!(ev.kind, EventKind::PhaseBegin { .. } | EventKind::PhaseEnd { .. }) {
                let trace = chrome_trace(&[ev]);
                let line = trace.lines().find(|l| l.contains("\"ph\": \"i\"")).expect("an instant");
                let (_, payload) = line.split_once("\"args\": ").expect("args");
                let mut at = 0;
                for key in &keys {
                    at += payload[at..].find(&format!("\"{key}\": ")).expect("key, in order");
                }
                assert_eq!(payload.matches("\": ").count(), keys.len(), "{payload}");
            }
        }
    }

    #[test]
    fn every_kind_exports_as_valid_json() {
        let events = every_kind();
        validate_json(&chrome_trace(&events)).expect("chrome trace of every kind");
        let mut m = Metrics::new();
        events.iter().for_each(|ev| count(&ev.kind, &mut m));
        validate_json(&metrics_json(&m)).expect("metrics of every kind");
    }

    #[test]
    fn timeline_legend_explains_every_glyph_it_shows_and_no_other() {
        let events = every_kind();
        let text = ascii_timeline(&events, events.len());
        let legend = text.lines().find_map(|l| l.strip_prefix("legend: ")).expect("a legend line");
        let explained: Vec<char> =
            legend.split("  ").map(|entry| entry.chars().next().expect("a glyph")).collect();
        let mut on_rows = Vec::new();
        for row in text.lines().filter(|l| l.starts_with("node ") && l.ends_with('|')) {
            let (_, cells) = row.split_once('|').expect("a framed row");
            let cells = cells.strip_suffix('|').expect("a framed row");
            for ch in cells.chars().filter(|&c| c != ' ') {
                assert!(explained.contains(&ch), "{ch:?} is not in {legend:?}");
                if !on_rows.contains(&ch) {
                    on_rows.push(ch);
                }
            }
        }
        assert_eq!(explained, on_rows, "first-appearance order, nothing unseen");
        // 18 kinds, begin and end of a phase sharing one glyph.
        assert_eq!(explained.len(), 17);
        assert!(!ascii_timeline(&sample_events(), 40).contains("crash"));
    }

    #[test]
    fn ascii_timeline_renders_every_node() {
        let text = ascii_timeline(&sample_events(), 40);
        assert!(text.contains("node   0"));
        assert!(text.contains("node   2"));
        assert!(text.contains('W'));
        assert!(text.contains('X'));
        assert!(text.contains("legend"));
        assert_eq!(ascii_timeline(&[], 40), "(no events)\n");
    }
}
