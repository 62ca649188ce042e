//! Datapath checkpoint/restore (DESIGN.md §14).
//!
//! A checkpoint is a *versioned, deterministic* image of everything in a
//! datapath that evolves at runtime: the flow table (per-flow CC state
//! words, RWND-rewrite state including the learned/unlearned scale flag,
//! sequence tracking, feedback accumulators), the health ladder and its
//! transition trace, the GC epoch, the admission `overload_seen` latch,
//! and the telemetry hub's counter values plus flight-recorder
//! bookkeeping. Restoring a checkpoint into a freshly constructed
//! datapath of the same configuration continues the run byte-identically
//! — same counter snapshots, same subsequent event sequence numbers,
//! same enforcement decisions — which is the contract the soak harness's
//! A/B equivalence check pins down.
//!
//! What is deliberately **not** checkpointed: construction parameters
//! (the [`crate::AcdcConfig`], CC configs, the priority weights) — the
//! restoring side rebuilds those through the same construction path, and
//! per-flow `cc` names verify the reproduction matches; diagnostic state
//! (per-flow window traces, the flight recorder's
//! buffered events) — it describes the past, not the future.
//!
//! ## Wire format
//!
//! `acdc-checkpoint/v2` is hand-rolled JSON (no serde), produced by
//! [`DatapathCheckpoint::to_json`] and read back by
//! [`DatapathCheckpoint::from_json`] through a small recursive-descent
//! parser. Determinism rules (lint rule S001): flows sorted by key,
//! metrics sorted by name, no floating-point formatting anywhere —
//! every number in the document is a `u64`.

use std::fmt::Write as _;

use acdc_packet::FlowKey;
use acdc_stats::time::Nanos;
use acdc_telemetry::{key_label, Telemetry};

use crate::entry::{Feedback, FlowEntryState, Lifecycle, SendSeq};

/// Schema tag every checkpoint document carries; `from_json` refuses any
/// other.
pub const CHECKPOINT_SCHEMA: &str = "acdc-checkpoint/v2";

/// Flight-recorder bookkeeping for one hub: enough to make the restored
/// recorder's *subsequent* event stream sequence-identical to the
/// uninterrupted run's. Ring content is diagnostic and not carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderCheckpoint {
    /// Sequence number the next recorded event will carry.
    pub next_seq: u64,
    /// Events lost to ring wraparound so far.
    pub overwritten: u64,
}

/// The telemetry hub's checkpointed state: every registered metric's
/// value (sorted by name) plus the recorder bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HubCheckpoint {
    /// `(name, value)` for every registered counter, sorted by
    /// name. Kinds are not carried: the restoring registry was built by
    /// the same construction path and already knows them.
    pub metrics: Vec<(String, u64)>,
    /// Flight-recorder sequence/overwrite bookkeeping.
    pub recorder: RecorderCheckpoint,
}

impl HubCheckpoint {
    /// Capture `hub`'s current metric values and recorder bookkeeping.
    pub fn capture(hub: &Telemetry) -> HubCheckpoint {
        HubCheckpoint {
            metrics: hub
                .registry()
                .snapshot_all()
                .into_iter()
                .map(|m| (m.name, m.value))
                .collect(),
            recorder: RecorderCheckpoint {
                next_seq: hub.recorder().total_recorded(),
                overwritten: hub.recorder().overwritten(),
            },
        }
    }

    /// Apply this checkpoint to `hub`: overwrite every named metric cell
    /// and restore the recorder bookkeeping. Fails when the checkpoint
    /// names a metric the hub's registry never registered — a
    /// checkpoint/configuration mismatch the caller must not ignore.
    pub fn apply(&self, hub: &Telemetry) -> Result<(), String> {
        for (name, value) in &self.metrics {
            if !hub.registry().restore_value(name, *value) {
                return Err(format!(
                    "checkpoint metric `{name}` is not registered in the restoring hub"
                ));
            }
        }
        hub.recorder()
            .restore_counters(self.recorder.next_seq, self.recorder.overwritten);
        Ok(())
    }
}

/// One tracked flow's checkpointed state.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowCheckpoint {
    /// The flow's 5-tuple key (data direction).
    pub key: FlowKey,
    /// [`crate::FlowEntry::rx_pending`]: derived from
    /// `state.feedback.rx_total`, and a restore refuses a document where
    /// the two disagree.
    pub rx_pending: bool,
    /// The entry's dynamic state.
    pub state: FlowEntryState,
}

/// A complete datapath checkpoint (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct DatapathCheckpoint {
    /// Virtual time the checkpoint was taken at.
    pub at: Nanos,
    /// The flow table's GC bookkeeping epoch at checkpoint time.
    pub gc_epoch: Nanos,
    /// The admission `overload_seen` latch (promotion hysteresis).
    pub overload_seen: bool,
    /// Health rung, as its stable 0/1/2 encoding.
    pub health_rung: u8,
    /// Time-stamped health transition trace (rung-encoded).
    pub health_trace: Vec<(Nanos, u8)>,
    /// Every tracked flow, sorted by key.
    pub flows: Vec<FlowCheckpoint>,
    /// The datapath's telemetry hub.
    pub hub: HubCheckpoint,
}

// ----------------------------------------------------------------------
// Flow-key labels
// ----------------------------------------------------------------------

/// Parse a [`key_label`]-formatted flow key.
pub fn parse_key_label(label: &str) -> Result<FlowKey, String> {
    let bad = || format!("malformed flow-key label `{label}`");
    let (src, dst) = label.split_once('>').ok_or_else(bad)?;
    let endpoint = |s: &str| -> Result<([u8; 4], u16), String> {
        let (ip, port) = s.split_once(':').ok_or_else(bad)?;
        let mut octets = [0u8; 4];
        let mut it = ip.split('.');
        for o in &mut octets {
            *o = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
        }
        if it.next().is_some() {
            return Err(bad());
        }
        Ok((octets, port.parse().map_err(|_| bad())?))
    };
    let (src_ip, src_port) = endpoint(src)?;
    let (dst_ip, dst_port) = endpoint(dst)?;
    Ok(FlowKey {
        src_ip,
        dst_ip,
        src_port,
        dst_port,
    })
}

// ----------------------------------------------------------------------
// Serialization
// ----------------------------------------------------------------------

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_opt(out: &mut String, v: Option<u64>) {
    match v {
        Some(n) => {
            let _ = write!(out, "{n}");
        }
        None => out.push_str("null"),
    }
}

fn write_hub(out: &mut String, hub: &HubCheckpoint) {
    let _ = write!(
        out,
        "{{\"recorder\":[{},{}],\"metrics\":[",
        hub.recorder.next_seq, hub.recorder.overwritten
    );
    for (i, (name, value)) in hub.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        write_str(out, name);
        let _ = write!(out, ",{value}]");
    }
    out.push_str("]}");
}

/// One flow's record, in the field order and under the names of the v2
/// format, which do not follow the entry's components.
fn write_flow(out: &mut String, f: &FlowCheckpoint) {
    let (s, fb, life) = (&f.state.seq, &f.state.feedback, &f.state.life);
    out.push_str("{\"key\":");
    write_str(out, &key_label(&f.key));
    let _ = write!(
        out,
        ",\"rx_pending\":{},\"snd_una\":{},\"snd_nxt\":{},\"seq_valid\":{},\"dupacks\":{},\"cc\":",
        f.rx_pending, s.snd_una.0, s.snd_nxt.0, s.seq_valid, s.dupacks
    );
    write_str(out, &f.state.cc_name);
    out.push_str(",\"cc_words\":[");
    for (i, w) in f.state.cc_words.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{w}");
    }
    let (wscale, learned, target) = f.state.rwnd;
    let _ = write!(
        out,
        "],\"rwnd\":[{},{},{}],\"vm_ecn\":{},\"rtt_probe\":",
        wscale, learned, target, s.vm_ecn
    );
    match s.rtt_probe {
        Some((seq, at)) => {
            let _ = write!(out, "[{},{}]", seq.0, at);
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"srtt\":");
    write_opt(out, s.srtt);
    let _ = write!(
        out,
        ",\"last_ack_activity\":{},\"fb_total\":{},\"fb_marked\":{},\"policed\":{},\"last_alpha\":",
        s.last_ack_activity, fb.fb_total, fb.fb_marked, f.state.policed
    );
    write_opt(out, f.state.last_alpha_micros);
    let _ = write!(
        out,
        ",\"rx_total\":{},\"rx_marked\":{},\"rx_total_lifetime\":{},\"rx_marked_lifetime\":{},\
         \"closing\":{},\"last_activity\":{}}}",
        fb.rx_total,
        fb.rx_marked,
        fb.rx_total_lifetime,
        fb.rx_marked_lifetime,
        life.closing,
        life.last_activity
    );
}

impl DatapathCheckpoint {
    /// Serialize as one deterministic `acdc-checkpoint/v2` JSON line:
    /// same checkpoint ⇒ same bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.flows.len() * 384);
        let _ = write!(
            out,
            "{{\"schema\":\"{CHECKPOINT_SCHEMA}\",\"at\":{},\"gc_epoch\":{},\
             \"overload_seen\":{},\"health\":{{\"rung\":{},\"trace\":[",
            self.at, self.gc_epoch, self.overload_seen, self.health_rung
        );
        for (i, (t, r)) in self.health_trace.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{t},{r}]");
        }
        out.push_str("]},\"flows\":[");
        for (i, f) in self.flows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_flow(&mut out, f);
        }
        out.push_str("],\"hub\":");
        write_hub(&mut out, &self.hub);
        out.push('}');
        out
    }

    /// Parse a [`DatapathCheckpoint::to_json`] document. Any deviation —
    /// wrong schema tag, malformed JSON, missing or mistyped field — is
    /// an `Err`, never a default-filled checkpoint.
    pub fn from_json(text: &str) -> Result<DatapathCheckpoint, String> {
        let v = Json::parse(text)?;
        let schema = v.field("schema")?.str_()?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(format!(
                "unsupported checkpoint schema `{schema}` (expected `{CHECKPOINT_SCHEMA}`)"
            ));
        }
        let health = v.field("health")?;
        let health_trace = health
            .field("trace")?
            .arr()?
            .iter()
            .map(|e| {
                let pair = e.arr()?;
                if pair.len() != 2 {
                    return Err("health trace entry is not a [time, rung] pair".to_string());
                }
                let rung = pair[1].num()?;
                Ok((
                    pair[0].num()?,
                    u8::try_from(rung).map_err(|_| format!("health rung {rung} out of range"))?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let flows = v
            .field("flows")?
            .arr()?
            .iter()
            .map(parse_flow)
            .collect::<Result<Vec<_>, String>>()?;
        let health_rung = health.field("rung")?.num()?;
        Ok(DatapathCheckpoint {
            at: v.field("at")?.num()?,
            gc_epoch: v.field("gc_epoch")?.num()?,
            overload_seen: v.field("overload_seen")?.boolean()?,
            health_rung: u8::try_from(health_rung)
                .map_err(|_| format!("health rung {health_rung} out of range"))?,
            health_trace,
            flows,
            hub: parse_hub(v.field("hub")?)?,
        })
    }
}

fn parse_hub(v: &Json) -> Result<HubCheckpoint, String> {
    let rec = v.field("recorder")?.arr()?;
    if rec.len() != 2 {
        return Err("recorder checkpoint is not a [next_seq, overwritten] pair".to_string());
    }
    let metrics = v
        .field("metrics")?
        .arr()?
        .iter()
        .map(|m| {
            let pair = m.arr()?;
            if pair.len() != 2 {
                return Err("metric entry is not a [name, value] pair".to_string());
            }
            Ok((pair[0].str_()?.to_string(), pair[1].num()?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(HubCheckpoint {
        metrics,
        recorder: RecorderCheckpoint {
            next_seq: rec[0].num()?,
            overwritten: rec[1].num()?,
        },
    })
}

fn parse_flow(v: &Json) -> Result<FlowCheckpoint, String> {
    use acdc_packet::SeqNumber;
    let seq32 = |what: &str, n: u64| {
        u32::try_from(n)
            .map(SeqNumber)
            .map_err(|_| format!("`{what}` {n} exceeds the 32-bit sequence space"))
    };
    let seq = |name: &str| seq32(name, v.field(name)?.num()?);
    let rwnd = v.field("rwnd")?.arr()?;
    if rwnd.len() != 3 {
        return Err("rwnd is not a [wscale, learned, target] triple".to_string());
    }
    let wscale = rwnd[0].num()?;
    let rtt_probe = match v.field("rtt_probe")? {
        Json::Null => None,
        probe => {
            let pair = probe.arr()?;
            if pair.len() != 2 {
                return Err("rtt_probe is not a [seq, sent_at] pair".to_string());
            }
            Some((seq32("rtt_probe", pair[0].num()?)?, pair[1].num()?))
        }
    };
    let dupacks = v.field("dupacks")?.num()?;
    let state = FlowEntryState {
        seq: SendSeq {
            snd_una: seq("snd_una")?,
            snd_nxt: seq("snd_nxt")?,
            seq_valid: v.field("seq_valid")?.boolean()?,
            dupacks: u32::try_from(dupacks)
                .map_err(|_| format!("dupacks {dupacks} out of range"))?,
            rtt_probe,
            srtt: v.field("srtt")?.opt_num()?,
            last_ack_activity: v.field("last_ack_activity")?.num()?,
            vm_ecn: v.field("vm_ecn")?.boolean()?,
        },
        cc_name: v.field("cc")?.str_()?.to_string(),
        cc_words: v
            .field("cc_words")?
            .arr()?
            .iter()
            .map(Json::num)
            .collect::<Result<Vec<_>, String>>()?,
        rwnd: (
            u8::try_from(wscale).map_err(|_| format!("wscale {wscale} out of range"))?,
            rwnd[1].boolean()?,
            rwnd[2].num()?,
        ),
        policed: v.field("policed")?.num()?,
        last_alpha_micros: v.field("last_alpha")?.opt_num()?,
        feedback: Feedback {
            fb_total: v.field("fb_total")?.num()?,
            fb_marked: v.field("fb_marked")?.num()?,
            rx_total: v.field("rx_total")?.num()?,
            rx_marked: v.field("rx_marked")?.num()?,
            rx_total_lifetime: v.field("rx_total_lifetime")?.num()?,
            rx_marked_lifetime: v.field("rx_marked_lifetime")?.num()?,
        },
        life: Lifecycle {
            closing: v.field("closing")?.boolean()?,
            last_activity: v.field("last_activity")?.num()?,
        },
    };
    Ok(FlowCheckpoint {
        key: parse_key_label(v.field("key")?.str_()?)?,
        rx_pending: v.field("rx_pending")?.boolean()?,
        state,
    })
}

// ----------------------------------------------------------------------
// Minimal JSON reader
// ----------------------------------------------------------------------

/// A parsed JSON value, restricted to what the checkpoint format uses:
/// objects (ordered pair lists — no hash maps, rule S001), arrays,
/// strings, booleans, `null`, and **unsigned 64-bit integers** (the
/// format has no floats and no negative numbers by construction).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Reader {
            s: text,
            b: text.as_bytes(),
            pos: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.pos != p.b.len() {
            return Err(p.err("trailing content after document"));
        }
        Ok(v)
    }

    fn field(&self, name: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{name}`")),
            _ => Err(format!("expected an object looking up `{name}`")),
        }
    }

    fn num(&self) -> Result<u64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(format!("expected a number, got {other:?}")),
        }
    }

    fn opt_num(&self) -> Result<Option<u64>, String> {
        match self {
            Json::Null => Ok(None),
            other => other.num().map(Some),
        }
    }

    fn boolean(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected a boolean, got {other:?}")),
        }
    }

    fn str_(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected a string, got {other:?}")),
        }
    }

    fn arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(format!("expected an array, got {other:?}")),
        }
    }
}

struct Reader<'a> {
    s: &'a str,
    /// `s.as_bytes()`, for the single-byte structural tokens.
    b: &'a [u8],
    /// Always on a char boundary of `s`: it advances over ASCII bytes or
    /// whole scalars only.
    pos: usize,
}

impl Reader<'_> {
    fn err(&self, msg: &str) -> String {
        format!("checkpoint parse error at byte {}: {msg}", self.pos)
    }

    fn ws(&mut self) {
        while self
            .b
            .get(self.pos)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", char::from(c))))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if let Some(c) = self.b.get(self.pos) {
            if matches!(c, b'.' | b'e' | b'E' | b'-' | b'+') {
                return Err(self.err("checkpoint numbers are unsigned integers only"));
            }
        }
        self.s[start..self.pos]
            .parse()
            .ok()
            .map(Json::Num)
            .ok_or_else(|| self.err("number does not fit in u64"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.b.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        _ => return Err(self.err("unsupported string escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // One UTF-8 scalar. `pos` is on a char boundary, so
                    // slicing the `&str` is O(1); going through the bytes
                    // would re-validate the rest of the document here.
                    let ch = self.s[self.pos..].chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.ws();
            out.push(self.value()?);
            self.ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let value = self.value()?;
            out.push((key, value));
            self.ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_packet::SeqNumber;

    fn key(p: u16) -> FlowKey {
        FlowKey {
            src_ip: [10, 0, 0, 1],
            dst_ip: [10, 0, 1, 2],
            src_port: p,
            dst_port: 80,
        }
    }

    fn sample_state() -> FlowEntryState {
        FlowEntryState {
            seq: SendSeq {
                snd_una: SeqNumber(1000),
                snd_nxt: SeqNumber(6000),
                seq_valid: true,
                dupacks: 2,
                rtt_probe: Some((SeqNumber(6000), 123_456)),
                srtt: Some(250_000),
                last_ack_activity: 1_000_000,
                vm_ecn: true,
            },
            cc_name: "dctcp".to_string(),
            cc_words: vec![14480, u64::MAX, 250_000, 0, 0, 1, 5_000_000, 0, 0],
            rwnd: (7, false, 14480),
            policed: 1,
            last_alpha_micros: None,
            feedback: Feedback {
                fb_total: 42,
                fb_marked: 7,
                rx_total: 100,
                rx_marked: 10,
                rx_total_lifetime: 9_000,
                rx_marked_lifetime: 900,
            },
            life: Lifecycle {
                closing: false,
                last_activity: 1_100_000,
            },
        }
    }

    fn sample_checkpoint() -> DatapathCheckpoint {
        DatapathCheckpoint {
            at: 5_000_000_000,
            gc_epoch: 4_000_000_000,
            overload_seen: true,
            health_rung: 1,
            health_trace: vec![(10, 1), (20, 0), (30, 1)],
            flows: vec![
                FlowCheckpoint {
                    key: key(40_000),
                    rx_pending: true,
                    state: sample_state(),
                },
                FlowCheckpoint {
                    key: key(40_001),
                    rx_pending: false,
                    state: {
                        let mut s = sample_state();
                        s.seq.rtt_probe = None;
                        s.seq.srtt = None;
                        s.rwnd = (0, true, 0);
                        s.feedback.rx_total = 0;
                        s.feedback.rx_marked = 0;
                        s
                    },
                },
            ],
            hub: HubCheckpoint {
                metrics: vec![
                    ("acdc.gc_evictions".to_string(), 2),
                    ("acdc.packs_sent".to_string(), 9),
                ],
                recorder: RecorderCheckpoint {
                    next_seq: 17,
                    overwritten: 3,
                },
            },
        }
    }

    #[test]
    fn key_label_round_trips() {
        let k = key(40_000);
        assert_eq!(key_label(&k), "10.0.0.1:40000>10.0.1.2:80");
        assert_eq!(parse_key_label(&key_label(&k)).unwrap(), k);
        // The all-zero key is written in full, not as the event log's `-`.
        let zero = acdc_telemetry::NO_FLOW;
        assert_eq!(key_label(&zero), "0.0.0.0:0>0.0.0.0:0");
        assert_eq!(parse_key_label(&key_label(&zero)).unwrap(), zero);
        for bad in ["", "10.0.0.1:1", "a.b.c.d:1>e.f.g.h:2", "1.2.3:4>5.6.7.8:9"] {
            assert!(parse_key_label(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let ckpt = sample_checkpoint();
        let json = ckpt.to_json();
        let back = DatapathCheckpoint::from_json(&json).expect("parses");
        assert_eq!(back, ckpt);
        // Determinism: serialize → parse → serialize is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn schema_and_shape_violations_are_errors() {
        let good = sample_checkpoint().to_json();
        for old in ["acdc-checkpoint/v0", "acdc-checkpoint/v1"] {
            let wrong_schema = good.replace(CHECKPOINT_SCHEMA, old);
            assert!(DatapathCheckpoint::from_json(&wrong_schema)
                .unwrap_err()
                .contains("unsupported checkpoint schema"));
        }
        assert!(DatapathCheckpoint::from_json(&good[..good.len() - 1]).is_err());
        assert!(DatapathCheckpoint::from_json("{}").is_err());
        assert!(DatapathCheckpoint::from_json("").is_err());
        let float = good.replacen("\"at\":5000000000", "\"at\":5.5", 1);
        assert!(DatapathCheckpoint::from_json(&float)
            .unwrap_err()
            .contains("unsigned integers only"));
    }

    #[test]
    fn hub_apply_restores_values_and_fails_on_unknown_names() {
        let hub = Telemetry::new(8);
        let c = hub.registry().counter("acdc.packs_sent");
        let ckpt = HubCheckpoint {
            metrics: vec![("acdc.packs_sent".to_string(), 12)],
            recorder: RecorderCheckpoint {
                next_seq: 40,
                overwritten: 2,
            },
        };
        ckpt.apply(&hub).expect("applies");
        assert_eq!(c.get(), 12);
        assert_eq!(hub.recorder().total_recorded(), 40);
        assert_eq!(hub.recorder().overwritten(), 2);
        // The next event continues the checkpointed numbering.
        hub.record(
            1,
            acdc_telemetry::NO_FLOW,
            acdc_telemetry::EventKind::FlowCreated,
        );
        assert_eq!(hub.recorder().events()[0].seq, 40);

        let unknown = HubCheckpoint {
            metrics: vec![("no.such.metric".to_string(), 1)],
            recorder: RecorderCheckpoint {
                next_seq: 0,
                overwritten: 0,
            },
        };
        assert!(unknown.apply(&hub).unwrap_err().contains("no.such.metric"));
    }
}
