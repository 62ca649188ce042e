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
//! `acdc-checkpoint/v2` is one JSON object, written by
//! [`DatapathCheckpoint::to_json`] and read back by
//! [`DatapathCheckpoint::from_json`] through `acdc-telemetry`'s codec
//! ([`Writer`] / [`Json`]), which owns every byte of punctuation and
//! escaping. This module owns the document's shape: field names and
//! order, flows sorted by key, metrics sorted by name. Every number in
//! the document is a `u64` (lint rule S001).

use acdc_packet::FlowKey;
use acdc_stats::time::Nanos;
use acdc_telemetry::{key_label, parse_key_label, Json, Telemetry, Writer};

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

/// One flow's record, in the field order and under the names of the v2
/// format, which do not follow the entry's components.
fn write_flow(w: &mut Writer, f: &FlowCheckpoint) {
    let (s, fb, life) = (&f.state.seq, &f.state.feedback, &f.state.life);
    let (wscale, learned, target) = f.state.rwnd;
    w.key("key").str(&key_label(&f.key));
    w.key("rx_pending").bool(f.rx_pending);
    w.key("snd_una").num(s.snd_una.0.into());
    w.key("snd_nxt").num(s.snd_nxt.0.into());
    w.key("seq_valid").bool(s.seq_valid);
    w.key("dupacks").num(s.dupacks.into());
    w.key("cc").str(&f.state.cc_name);
    w.key("cc_words").arr(|w| {
        for &word in &f.state.cc_words {
            w.num(word);
        }
    });
    w.key("rwnd").arr(|w| {
        w.num(wscale.into()).bool(learned).num(target);
    });
    w.key("vm_ecn").bool(s.vm_ecn);
    w.key("rtt_probe");
    match s.rtt_probe {
        Some((seq, at)) => w.arr(|w| {
            w.num(seq.0.into()).num(at);
        }),
        None => w.null(),
    };
    w.key("srtt").opt_num(s.srtt);
    w.key("last_ack_activity").num(s.last_ack_activity);
    w.key("fb_total").num(fb.fb_total);
    w.key("fb_marked").num(fb.fb_marked);
    w.key("policed").num(f.state.policed);
    w.key("last_alpha").opt_num(f.state.last_alpha_micros);
    w.key("rx_total").num(fb.rx_total);
    w.key("rx_marked").num(fb.rx_marked);
    w.key("rx_total_lifetime").num(fb.rx_total_lifetime);
    w.key("rx_marked_lifetime").num(fb.rx_marked_lifetime);
    w.key("closing").bool(life.closing);
    w.key("last_activity").num(life.last_activity);
}

impl DatapathCheckpoint {
    /// Serialize as one deterministic `acdc-checkpoint/v2` JSON line:
    /// same checkpoint ⇒ same bytes.
    pub fn to_json(&self) -> String {
        Writer::object(256 + self.flows.len() * 384, |w| {
            w.key("schema").str(CHECKPOINT_SCHEMA);
            w.key("at").num(self.at).key("gc_epoch").num(self.gc_epoch);
            w.key("overload_seen").bool(self.overload_seen);
            w.key("health").obj(|w| {
                w.key("rung").num(self.health_rung.into());
                w.key("trace").arr(|w| {
                    for &(t, r) in &self.health_trace {
                        w.arr(|w| {
                            w.num(t).num(r.into());
                        });
                    }
                });
            });
            w.key("flows").arr(|w| {
                for f in &self.flows {
                    w.obj(|w| write_flow(w, f));
                }
            });
            let hub = &self.hub;
            w.key("hub").obj(|w| {
                w.key("recorder").arr(|w| {
                    w.num(hub.recorder.next_seq).num(hub.recorder.overwritten);
                });
                w.key("metrics").arr(|w| {
                    for (name, value) in &hub.metrics {
                        w.arr(|w| {
                            w.str(name).num(*value);
                        });
                    }
                });
            });
        })
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
        Ok(DatapathCheckpoint {
            at: v.field("at")?.num()?,
            gc_epoch: v.field("gc_epoch")?.num()?,
            overload_seen: v.field("overload_seen")?.boolean()?,
            health_rung: health.field("rung")?.num()?,
            health_trace: health.field("trace")?.arr_of(|e| {
                let [t, rung] = e.tuple()?;
                Ok((t.num()?, rung.num()?))
            })?,
            flows: v.field("flows")?.arr_of(parse_flow)?,
            hub: parse_hub(v.field("hub")?)?,
        })
    }
}

fn parse_hub(v: &Json) -> Result<HubCheckpoint, String> {
    let [next_seq, overwritten] = v.field("recorder")?.tuple()?;
    Ok(HubCheckpoint {
        metrics: v.field("metrics")?.arr_of(|m| {
            let [name, value] = m.tuple()?;
            Ok((name.str_()?.to_string(), value.num()?))
        })?,
        recorder: RecorderCheckpoint {
            next_seq: next_seq.num()?,
            overwritten: overwritten.num()?,
        },
    })
}

fn parse_flow(v: &Json) -> Result<FlowCheckpoint, String> {
    use acdc_packet::SeqNumber;
    let [wscale, learned, target] = v.field("rwnd")?.tuple()?;
    let rtt_probe = match v.field("rtt_probe")? {
        Json::Null => None,
        probe => {
            let [seq, sent_at] = probe.tuple()?;
            Some((SeqNumber(seq.num()?), sent_at.num()?))
        }
    };
    let state = FlowEntryState {
        seq: SendSeq {
            snd_una: SeqNumber(v.field("snd_una")?.num()?),
            snd_nxt: SeqNumber(v.field("snd_nxt")?.num()?),
            seq_valid: v.field("seq_valid")?.boolean()?,
            dupacks: v.field("dupacks")?.num()?,
            rtt_probe,
            srtt: v.field("srtt")?.opt_num()?,
            last_ack_activity: v.field("last_ack_activity")?.num()?,
            vm_ecn: v.field("vm_ecn")?.boolean()?,
        },
        cc_name: v.field("cc")?.str_()?.to_string(),
        cc_words: v.field("cc_words")?.arr_of(Json::num)?,
        rwnd: (wscale.num()?, learned.boolean()?, target.num()?),
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
        for odd in ["5.5", "05000000000"] {
            let num = good.replacen("\"at\":5000000000", &format!("\"at\":{odd}"), 1);
            assert!(DatapathCheckpoint::from_json(&num)
                .unwrap_err()
                .contains("unsigned integers only"));
        }
        // Only what the writer writes reads back: a metric name with an
        // escaped newline parses, a raw control character or an escape
        // in a form the escaper does not use does not.
        let name = |to: &str| good.replacen("acdc.gc_", to, 1);
        assert!(DatapathCheckpoint::from_json(&name("acdc.gc\\n")).is_ok());
        for odd in [
            "acdc.gc\r",
            "acdc.gc\\u000a",
            "acdc.gc\\u001F",
            "acdc.gc\\/",
        ] {
            assert!(DatapathCheckpoint::from_json(&name(odd)).is_err(), "{odd}");
        }
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
