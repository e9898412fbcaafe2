//! Per-wave execution tracing: the step-by-step record of *how* the
//! engine transformed the design state, alongside the audit log's *what*.
//!
//! An [`AuditLog`](crate::engine::audit::AuditLog) answers "how many
//! deliveries/writes happened"; a [`TraceLog`] answers "in what order, on
//! which object, fired by which link" — the record a time-travel debugger
//! replays next to a journal cursor. Each processed event contributes a
//! bracketed run of [`TraceRecord`]s:
//!
//! ```text
//! begin ckin cpu,HDL_model,2 yves 7 - -
//! deliver cpu,HDL_model,2 ckin HDL_model
//! write cpu,HDL_model,2 uptodate b:true
//! fire cpu,HDL_model,2 cpu,schematic,1 outofdate
//! deliver cpu,schematic,1 outofdate schematic
//! write cpu,schematic,1 uptodate b:false
//! invoke netlister cpu,schematic,1 outofdate
//! end 2
//! ```
//!
//! The discipline mirrors the audit log exactly:
//!
//! * **Zero cost when off.** Retention is off by default; every hot-path
//!   hook is guarded by [`TraceLog::enabled`], so a disabled trace costs
//!   one branch per potential record and allocates nothing.
//! * **One order.** Every wave runs inline in queue order, so the trace
//!   is the drain's execution order. The `begin` record ends in two
//!   words that are always `-`: wave lanes wrote a lane and a shard
//!   there as `+<n>`, and such traces still decode, dropping both.
//!
//! Records use the protocol's word codec (`PROTOCOL.md` §1), so a trace
//! streams through [`Response::Trace`](crate::engine::api::Response) and
//! lands in fixture files byte-identically.

use damocles_meta::persist::{decode_value, encode_value};
use damocles_meta::{Oid, Value, WordCursor};

use crate::engine::api::{dec_str, enc_str};

/// One step of a traced wave, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// A queued event began executing.
    Begin {
        /// The event name.
        event: String,
        /// The anchor OID the event was addressed to.
        target: Oid,
        /// The posting user or wrapper.
        user: String,
        /// The engine clock stamped on this wave.
        clock: u64,
    },
    /// A dispatch table fired: `oid` (of view `view`) executed its rules
    /// for `event`.
    Deliver {
        /// The delivered-to object.
        oid: Oid,
        /// The event delivered.
        event: String,
        /// The object's view type.
        view: String,
    },
    /// A property was written (rule assignment or continuous `let`).
    Write {
        /// The written object.
        oid: Oid,
        /// The property name.
        prop: String,
        /// The value written.
        value: Value,
    },
    /// A link propagated the event across `from -> to`.
    Fire {
        /// The link's source end.
        from: Oid,
        /// The link's destination end.
        to: Oid,
        /// The event carried across.
        event: String,
    },
    /// A tool invocation was rendered for dispatch.
    Invoke {
        /// The script (tool) name.
        script: String,
        /// The OID whose rule rendered it.
        origin: Oid,
        /// The triggering event.
        event: String,
    },
    /// The wave for one queued event finished.
    End {
        /// OIDs that executed rules during this wave.
        delivered: u64,
    },
    /// A detached tool invocation reached a terminal state at harvest
    /// (recorded by the server, not the wave engine — retry attempts are
    /// invisible inside a wave).
    Settle {
        /// The script (tool) name.
        script: String,
        /// Attempts consumed (≥ 1).
        attempts: u64,
        /// Whether the invocation completed (`false` = retry budget
        /// exhausted).
        ok: bool,
    },
}

impl TraceRecord {
    /// Renders the record's canonical single-line form (no newline).
    pub fn encode(&self) -> String {
        match self {
            TraceRecord::Begin {
                event,
                target,
                user,
                clock,
            } => format!(
                "begin {} {} {} {clock} - -",
                enc_str(event),
                enc_str(&target.to_string()),
                enc_str(user)
            ),
            TraceRecord::Deliver { oid, event, view } => format!(
                "deliver {} {} {}",
                enc_str(&oid.to_string()),
                enc_str(event),
                enc_str(view)
            ),
            TraceRecord::Write { oid, prop, value } => format!(
                "write {} {} {}",
                enc_str(&oid.to_string()),
                enc_str(prop),
                encode_value(value)
            ),
            TraceRecord::Fire { from, to, event } => format!(
                "fire {} {} {}",
                enc_str(&from.to_string()),
                enc_str(&to.to_string()),
                enc_str(event)
            ),
            TraceRecord::Invoke {
                script,
                origin,
                event,
            } => format!(
                "invoke {} {} {}",
                enc_str(script),
                enc_str(&origin.to_string()),
                enc_str(event)
            ),
            TraceRecord::End { delivered } => format!("end {delivered}"),
            TraceRecord::Settle {
                script,
                attempts,
                ok,
            } => format!("settle {} {attempts} {}", enc_str(script), u8::from(*ok)),
        }
    }

    /// Parses the canonical single-line form ([`TraceRecord::encode`] is
    /// its inverse, byte-identically).
    ///
    /// # Errors
    ///
    /// A human-readable reason when the line is not a trace record.
    pub fn decode(line: &str) -> Result<TraceRecord, String> {
        let mut words = WordCursor::new(line);
        let mut next = |what: &str| -> Result<String, String> {
            words
                .next_word()
                .map(|(_, w)| w.to_string())
                .ok_or_else(|| format!("missing {what}"))
        };
        let string = |w: &str| dec_str(w);
        let oid = |w: &str| -> Result<Oid, String> {
            dec_str(w)?.parse::<Oid>().map_err(|e| e.short_reason())
        };
        let num = |w: &str| -> Result<u64, String> {
            w.parse::<u64>()
                .map_err(|_| format!("`{w}` is not a number"))
        };
        let lane_word = |w: &str| -> Result<(), String> {
            match w.strip_prefix('+') {
                Some(n) => num(n).map(drop),
                None if w == "-" => Ok(()),
                None => Err(format!("expected `-` or `+<n>`, found `{w}`")),
            }
        };
        let kind = next("a trace record kind")?;
        let rec = match kind.as_str() {
            "begin" => {
                let rec = TraceRecord::Begin {
                    event: string(&next("an event")?)?,
                    target: oid(&next("a target OID")?)?,
                    user: string(&next("a user")?)?,
                    clock: num(&next("a clock")?)?,
                };
                lane_word(&next("a lane")?)?;
                lane_word(&next("a shard")?)?;
                rec
            }
            "deliver" => TraceRecord::Deliver {
                oid: oid(&next("an OID")?)?,
                event: string(&next("an event")?)?,
                view: string(&next("a view")?)?,
            },
            "write" => TraceRecord::Write {
                oid: oid(&next("an OID")?)?,
                prop: string(&next("a property")?)?,
                value: decode_value(&next("a value")?)?,
            },
            "fire" => TraceRecord::Fire {
                from: oid(&next("a source OID")?)?,
                to: oid(&next("a destination OID")?)?,
                event: string(&next("an event")?)?,
            },
            "invoke" => TraceRecord::Invoke {
                script: string(&next("a script")?)?,
                origin: oid(&next("an origin OID")?)?,
                event: string(&next("an event")?)?,
            },
            "end" => TraceRecord::End {
                delivered: num(&next("a delivery count")?)?,
            },
            "settle" => TraceRecord::Settle {
                script: string(&next("a script")?)?,
                attempts: num(&next("an attempt count")?)?,
                ok: match next("an ok flag (0/1)")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("`{other}` is not 0/1")),
                },
            },
            other => return Err(format!("unknown trace record kind `{other}`")),
        };
        if let Some((_, extra)) = words.next_word() {
            return Err(format!("trailing `{extra}` after a complete record"));
        }
        Ok(rec)
    }
}

/// The execution trace log: an ordered capture of [`TraceRecord`]s with
/// the audit log's retention discipline — off by default, one branch per
/// potential record when off.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    records: Vec<TraceRecord>,
    retain: bool,
}

impl TraceLog {
    /// A disabled trace log (the default): every hook is a cheap branch,
    /// nothing is captured.
    pub fn disabled() -> Self {
        TraceLog::default()
    }

    /// A retaining trace log: every step is captured in order.
    pub fn retaining() -> Self {
        TraceLog {
            records: Vec::new(),
            retain: true,
        }
    }

    /// Whether records are being captured. Hot-path hooks must check this
    /// before constructing a record — the zero-cost-when-off contract.
    pub fn enabled(&self) -> bool {
        self.retain
    }

    /// Turns retention on or off. Turning it off drops captured records.
    pub fn set_retaining(&mut self, on: bool) {
        self.retain = on;
        if !on {
            self.records = Vec::new();
        }
    }

    /// Captures one record (no-op when disabled).
    pub fn push(&mut self, record: TraceRecord) {
        if self.retain {
            self.records.push(record);
        }
    }

    /// The captured records, in execution order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Drains the captured records, leaving retention mode unchanged —
    /// the `trace get` semantics (each get returns the steps since the
    /// last, bounding the server's memory).
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }

    /// Captured record count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceRecord> {
        vec![
            TraceRecord::Begin {
                event: "ckin".into(),
                target: Oid::new("cpu", "HDL_model", 2),
                user: "yves lin".into(),
                clock: 7,
            },
            TraceRecord::Begin {
                event: "outofdate".into(),
                target: Oid::new("cpu", "schematic", 1),
                user: String::new(),
                clock: 8,
            },
            TraceRecord::Deliver {
                oid: Oid::new("cpu", "schematic", 1),
                event: "outofdate".into(),
                view: "schematic".into(),
            },
            TraceRecord::Write {
                oid: Oid::new("cpu", "schematic", 1),
                prop: "uptodate".into(),
                value: Value::Bool(false),
            },
            TraceRecord::Write {
                oid: Oid::new("cpu", "schematic", 1),
                prop: "note".into(),
                value: Value::Str("4 errors\nbad".into()),
            },
            TraceRecord::Fire {
                from: Oid::new("cpu", "HDL_model", 2),
                to: Oid::new("cpu", "schematic", 1),
                event: "outofdate".into(),
            },
            TraceRecord::Invoke {
                script: "netlister".into(),
                origin: Oid::new("cpu", "schematic", 1),
                event: "outofdate".into(),
            },
            TraceRecord::End { delivered: 2 },
            TraceRecord::Settle {
                script: "netlister".into(),
                attempts: 3,
                ok: true,
            },
            TraceRecord::Settle {
                script: "lvs".into(),
                attempts: 6,
                ok: false,
            },
        ]
    }

    #[test]
    fn records_roundtrip_byte_identically() {
        for rec in samples() {
            let line = rec.encode();
            let back = TraceRecord::decode(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert_eq!(back, rec, "`{line}`");
            assert_eq!(back.encode(), line, "canonical re-encode of `{line}`");
        }
    }

    #[test]
    fn lane_and_shard_words_decode_and_reencode_as_dashes() {
        let line = "begin outofdate cpu,schematic,1 % 8 +2 +5";
        let rec = TraceRecord::decode(line).unwrap();
        assert_eq!(rec, samples()[1]);
        assert_eq!(rec.encode(), "begin outofdate cpu,schematic,1 % 8 - -");
    }

    #[test]
    fn decode_rejects_damage() {
        assert!(TraceRecord::decode("frobnicate 1").is_err());
        assert!(TraceRecord::decode("end").is_err());
        assert!(TraceRecord::decode("end 3 extra").is_err());
        assert!(TraceRecord::decode("settle tool 2 yes").is_err());
        assert!(TraceRecord::decode("begin ev cpu,v,1 u 4 * -").is_err());
    }

    #[test]
    fn disabled_log_captures_nothing() {
        let mut log = TraceLog::disabled();
        assert!(!log.enabled());
        log.push(TraceRecord::End { delivered: 1 });
        assert!(log.is_empty());
    }

    #[test]
    fn retaining_log_orders_and_drains() {
        let mut log = TraceLog::retaining();
        for rec in samples() {
            log.push(rec);
        }
        assert_eq!(log.len(), samples().len());
        assert_eq!(log.records()[0], samples()[0]);
        let drained = log.take_records();
        assert_eq!(drained.len(), samples().len());
        assert!(log.is_empty());
        assert!(log.enabled(), "draining keeps retention on");
    }

    #[test]
    fn disabling_drops_records() {
        let mut log = TraceLog::retaining();
        log.push(TraceRecord::End { delivered: 1 });
        log.set_retaining(false);
        assert!(log.is_empty() && !log.enabled());
    }
}
