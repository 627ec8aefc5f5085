//! Exporters: Chrome trace-event JSON, flat metrics JSON, and ASCII
//! per-node timelines.
//!
//! All JSON is hand-rolled — the workspace deliberately omits `serde`
//! (DESIGN §7); the formats here are small enough that a formatter and
//! an escaping function cover them. Every report outside this module
//! (the `BENCH_*.json` studies, the race, staleness and lint artifacts)
//! is a [`Json`] tree written by [`json_document`].

use std::fmt::{self, Write as _};

use crate::event::{Event, EventKind};
use crate::metrics::{bucket_hi, bucket_lo, Histogram, MetricsSnapshot};

/// Escapes `s` for inclusion inside a JSON string literal (without the
/// surrounding quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
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
    /// A string, escaped by [`json_escape`] when written.
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

/// The inline form: `{"k": 1, "v": [2, 3]}`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Float(v, _) if !v.is_finite() => f.write_str("null"),
            Json::Float(v, Some(decimals)) => write!(f, "{v:.decimals$}"),
            Json::Float(v, None) => write!(f, "{v}"),
            Json::Str(s) => write!(f, "\"{}\"", json_escape(s)),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i == 0 { "" } else { ", " })?;
                }
                f.write_str("]")
            }
            Json::Object(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}\"{}\": {value}", json_escape(key))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `fields` as one JSON document in the layout every report
/// shares: a top-level field per line, the elements of a top-level array
/// one per line below it, everything deeper inline.
pub fn json_document(fields: &[(&'static str, Json)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        let _ = write!(out, "{}\n  \"{}\": ", if i == 0 { "" } else { "," }, json_escape(key));
        match value {
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
    let mut out = String::with_capacity(events.len() * 110 + 64);
    out.push('[');
    let mut first = true;
    let mut push = |out: &mut String, obj: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n  ");
        out.push_str(&obj);
    };

    // Name the threads after their nodes so traces are self-describing.
    if let Some(max) = events.iter().map(|e| e.node).max() {
        for n in 0..=max {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{n},\
                     \"args\":{{\"name\":\"node {n}\"}}}}"
                ),
            );
        }
    }

    for ev in events {
        let ts = ev.at_ns as f64 / 1000.0;
        let tid = ev.node;
        let obj = match ev.kind {
            EventKind::PhaseBegin { name } => format!(
                "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"B\",\"ts\":{ts:.3},\
                 \"pid\":0,\"tid\":{tid}}}",
                json_escape(name)
            ),
            EventKind::PhaseEnd { name } => format!(
                "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"E\",\"ts\":{ts:.3},\
                 \"pid\":0,\"tid\":{tid}}}",
                json_escape(name)
            ),
            kind => {
                let args = match kind {
                    EventKind::PacketSent { dst, payload_bytes, wire_bytes, hops } => format!(
                        "{{\"dst\":{dst},\"payload_bytes\":{payload_bytes},\
                         \"wire_bytes\":{wire_bytes},\"hops\":{hops}}}"
                    ),
                    EventKind::PacketDelivered { src, payload_bytes, latency_ns, queue_depth } => {
                        format!(
                            "{{\"src\":{src},\"payload_bytes\":{payload_bytes},\
                         \"latency_ns\":{latency_ns},\"queue_depth\":{queue_depth}}}"
                        )
                    }
                    EventKind::ChannelContended { channel, stall_ns } => {
                        format!("{{\"channel\":{channel},\"stall_ns\":{stall_ns}}}")
                    }
                    EventKind::WireRouted { wire, cells } | EventKind::RipUp { wire, cells } => {
                        format!("{{\"wire\":{wire},\"cells\":{cells}}}")
                    }
                    EventKind::CacheMiss { addr, line_bytes } => {
                        format!("{{\"addr\":{addr},\"line_bytes\":{line_bytes}}}")
                    }
                    EventKind::Invalidation { addr, copies } => {
                        format!("{{\"addr\":{addr},\"copies\":{copies}}}")
                    }
                    EventKind::BusTransfer { bytes } => format!("{{\"bytes\":{bytes}}}"),
                    EventKind::MemRequest { resource, bytes, critical } => {
                        format!(
                            "{{\"resource\":{resource},\"bytes\":{bytes},\
                             \"critical\":{critical}}}"
                        )
                    }
                    EventKind::KernelStats {
                        candidates,
                        prefix_hits,
                        prefix_rebuilds,
                        prefix_patches,
                        prefix_invalidations,
                        prefix_fallbacks,
                        percell_evals,
                    } => format!(
                        "{{\"candidates\":{candidates},\"prefix_hits\":{prefix_hits},\
                         \"prefix_rebuilds\":{prefix_rebuilds},\
                         \"prefix_patches\":{prefix_patches},\
                         \"prefix_invalidations\":{prefix_invalidations},\
                         \"prefix_fallbacks\":{prefix_fallbacks},\
                         \"percell_evals\":{percell_evals}}}"
                    ),
                    EventKind::PercellFallback { wire } => format!("{{\"wire\":{wire}}}"),
                    EventKind::RaceDetected { addr, wire, benign } => {
                        format!("{{\"addr\":{addr},\"wire\":{wire},\"benign\":{benign}}}")
                    }
                    EventKind::ReplicaAudit { diverged_cells, max_divergence, mean_age_ns } => {
                        format!(
                            "{{\"diverged_cells\":{diverged_cells},\
                             \"max_divergence\":{max_divergence},\"mean_age_ns\":{mean_age_ns}}}"
                        )
                    }
                    EventKind::FaultInjected { dst, payload_bytes, fault, extra_ns } => {
                        format!(
                            "{{\"dst\":{dst},\"payload_bytes\":{payload_bytes},\
                             \"fault\":\"{}\",\"extra_ns\":{extra_ns}}}",
                            fault.name()
                        )
                    }
                    EventKind::PacketRetransmitted { dst, seq, attempt } => {
                        format!("{{\"dst\":{dst},\"seq\":{seq},\"attempt\":{attempt}}}")
                    }
                    EventKind::AckSent { dst, cum_seq } => {
                        format!("{{\"dst\":{dst},\"cum_seq\":{cum_seq}}}")
                    }
                    EventKind::WatchdogRecovery { wire } => format!("{{\"wire\":{wire}}}"),
                    EventKind::JobEnqueued { job, queue_depth } => {
                        format!("{{\"job\":{job},\"queue_depth\":{queue_depth}}}")
                    }
                    EventKind::JobDispatched { job, queued_ms } => {
                        format!("{{\"job\":{job},\"queued_ms\":{queued_ms}}}")
                    }
                    EventKind::JobCompleted { job, service_ms } => {
                        format!("{{\"job\":{job},\"service_ms\":{service_ms}}}")
                    }
                    EventKind::JobShed { job } => format!("{{\"job\":{job}}}"),
                    EventKind::JobRejected { job, retry_ms } => {
                        format!("{{\"job\":{job},\"retry_ms\":{retry_ms}}}")
                    }
                    EventKind::NodeCrashed { will_restart } => {
                        format!("{{\"will_restart\":{will_restart}}}")
                    }
                    EventKind::NodeRestarted { downtime_ns } => {
                        format!("{{\"downtime_ns\":{downtime_ns}}}")
                    }
                    EventKind::CheckpointTaken { bytes } => format!("{{\"bytes\":{bytes}}}"),
                    EventKind::WireReassigned { wire, from, to } => {
                        format!("{{\"wire\":{wire},\"from\":{from},\"to\":{to}}}")
                    }
                    EventKind::CoordinatorFailover { new_coordinator } => {
                        format!("{{\"new_coordinator\":{new_coordinator}}}")
                    }
                    EventKind::JobRetried { job, attempt } => {
                        format!("{{\"job\":{job},\"attempt\":{attempt}}}")
                    }
                    EventKind::BreakerTripped { class } => format!("{{\"class\":{class}}}"),
                    EventKind::PhaseBegin { .. } | EventKind::PhaseEnd { .. } => unreachable!(),
                };
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts:.3},\"pid\":0,\"tid\":{tid},\"args\":{args}}}",
                    ev.kind.name()
                )
            }
        };
        push(&mut out, obj);
    }
    out.push_str("\n]\n");
    out
}

fn histogram_json(h: &Histogram) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\
         \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
        h.count(),
        h.sum(),
        h.min().unwrap_or(0),
        h.max().unwrap_or(0),
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.9),
        h.quantile(0.99),
    );
    let mut first = true;
    for (i, &c) in h.buckets().iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{{\"lo\":{},\"hi\":{},\"count\":{c}}}", bucket_lo(i), bucket_hi(i));
    }
    out.push_str("]}");
    out
}

/// Renders a metrics snapshot as a flat JSON object:
/// `{"counters": {...}, "histograms": {...}}`.
pub fn metrics_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    let mut first = true;
    for (name, value) in &snap.counters {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {value}", json_escape(name));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    let mut first = true;
    for (name, h) in &snap.histograms {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {}", json_escape(name), histogram_json(h));
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Timeline glyphs in priority order (later events in the same cell win
/// only against lower-priority glyphs).
fn glyph(kind: &EventKind) -> (char, u8) {
    match kind {
        EventKind::RaceDetected { .. } => ('R', 8),
        EventKind::WatchdogRecovery { .. } => ('G', 8),
        EventKind::RipUp { .. } => ('X', 7),
        EventKind::FaultInjected { .. } => ('F', 6),
        EventKind::WireRouted { .. } => ('W', 6),
        EventKind::ChannelContended { .. } => ('C', 5),
        EventKind::PacketSent { .. } => ('S', 4),
        EventKind::PacketRetransmitted { .. } => ('T', 4),
        EventKind::PacketDelivered { .. } => ('D', 3),
        EventKind::CacheMiss { .. } => ('M', 3),
        EventKind::ReplicaAudit { .. } => ('A', 2),
        EventKind::Invalidation { .. } => ('I', 2),
        EventKind::BusTransfer { .. } => ('B', 1),
        EventKind::MemRequest { .. } => ('m', 1),
        EventKind::KernelStats { .. } => ('K', 1),
        EventKind::PercellFallback { .. } => ('P', 5),
        EventKind::AckSent { .. } => ('a', 1),
        EventKind::JobShed { .. } => ('L', 7),
        EventKind::JobRejected { .. } => ('r', 5),
        EventKind::JobCompleted { .. } => ('J', 4),
        EventKind::JobDispatched { .. } => ('>', 3),
        EventKind::JobEnqueued { .. } => ('j', 2),
        EventKind::NodeCrashed { .. } => ('!', 9),
        EventKind::NodeRestarted { .. } => ('^', 9),
        EventKind::CoordinatorFailover { .. } => ('O', 9),
        EventKind::WireReassigned { .. } => ('N', 8),
        EventKind::CheckpointTaken { .. } => ('c', 2),
        EventKind::JobRetried { .. } => ('y', 5),
        EventKind::BreakerTripped { .. } => ('Z', 8),
        EventKind::PhaseBegin { .. } | EventKind::PhaseEnd { .. } => ('|', 0),
    }
}

/// Renders an ASCII per-node timeline plus a per-node summary table.
///
/// Time is scaled onto `width` columns; each cell shows the
/// highest-priority event that landed in it (`R` race, `X` rip-up,
/// `W` wire routed, `C` contention, `S` sent, `D` delivered, `M` cache
/// miss, `A` replica audit, `I` invalidation, `B` bus transfer,
/// `|` phase boundary).
pub fn ascii_timeline(events: &[Event], width: usize) -> String {
    let width = width.max(10);
    if events.is_empty() {
        return "(no events)\n".to_string();
    }
    let n_nodes = events.iter().map(|e| e.node).max().expect("events nonempty") as usize + 1;
    let t_max = events.iter().map(|e| e.at_ns).max().expect("events nonempty").max(1);

    let mut rows = vec![vec![(' ', 0u8); width]; n_nodes];
    let mut sent = vec![0u64; n_nodes];
    let mut bytes = vec![0u64; n_nodes];
    let mut routed = vec![0u64; n_nodes];
    let mut ripped = vec![0u64; n_nodes];
    let mut total = vec![0u64; n_nodes];

    for ev in events {
        let node = ev.node as usize;
        let col = ((ev.at_ns as u128 * (width as u128 - 1)) / t_max as u128) as usize;
        let (ch, pri) = glyph(&ev.kind);
        if pri >= rows[node][col].1 {
            rows[node][col] = (ch, pri);
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
    for (n, row) in rows.iter().enumerate() {
        let line: String = row.iter().map(|&(c, _)| c).collect();
        let _ = writeln!(out, "node {n:>3} |{line}|");
    }
    out.push_str("legend: R race  G watchdog  X ripup  F fault  W routed  C contention  ");
    out.push_str("S sent  T resent  D delivered  M miss  A audit  I inval  B bus  ");
    out.push_str("a ack  j job-enq  > job-disp  J job-done  L job-shed  r job-rej  | phase\n\n");
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
    use crate::metrics::{names, Metrics};

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
            Event { at_ns: 960, node: 2, kind: EventKind::CacheMiss { addr: 64, line_bytes: 8 } },
            Event { at_ns: 970, node: 2, kind: EventKind::Invalidation { addr: 64, copies: 3 } },
            Event { at_ns: 980, node: 2, kind: EventKind::BusTransfer { bytes: 8 } },
            Event {
                at_ns: 985,
                node: 1,
                kind: EventKind::RaceDetected { addr: 64, wire: 3, benign: true },
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
        validate_json(&json_document(&[])).expect("an empty document is an empty object");
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
        assert!(trace.contains("\"ph\":\"B\""));
        assert!(trace.contains("\"ph\":\"E\""));
        assert!(trace.contains("\"ph\":\"i\""));
        assert!(trace.contains("\"tid\":2"));
    }

    #[test]
    fn chrome_trace_of_nothing_is_empty_array() {
        validate_json(&chrome_trace(&[])).unwrap();
    }

    #[test]
    fn metrics_json_is_valid_and_carries_counters() {
        let mut m = Metrics::new();
        for ev in sample_events() {
            m.observe(&ev);
        }
        let json = metrics_json(&m.snapshot());
        validate_json(&json).expect("metrics JSON must be valid");
        assert!(json.contains("\"bytes_sent\": 40"));
        assert!(json.contains("\"latency_ns\""));
        assert_eq!(m.counter(names::INVALIDATIONS), 3);
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
