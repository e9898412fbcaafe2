//! Audit trail of everything the run-time engine does.
//!
//! DAMOCLES is an *observer*: its value is the record it keeps. The audit log
//! doubles as the measurement instrument for the reproduction experiments —
//! every bench in `crates/bench` reads propagation work out of
//! [`AuditSummary`].

use damocles_meta::{Direction, Oid, Value};

/// One recorded engine action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditRecord {
    /// An event was delivered to an OID and its rules executed.
    Delivered {
        /// Receiving object.
        oid: Oid,
        /// Event name.
        event: String,
    },
    /// A property changed value through a rule or template.
    Assigned {
        /// Object whose property changed.
        oid: Oid,
        /// Property name.
        prop: String,
        /// Previous value, if any.
        old: Option<Value>,
        /// New value.
        new: Value,
    },
    /// A continuous assignment was re-evaluated.
    Reevaluated {
        /// Object owning the `let`.
        oid: Oid,
        /// Derived property name.
        name: String,
        /// Result value.
        value: Value,
    },
    /// A script / tool wrapper was invoked through an `exec` or `notify`.
    ScriptInvoked {
        /// Script name after interpolation.
        script: String,
        /// Arguments after interpolation.
        args: Vec<String>,
        /// True for `notify` actions.
        notify: bool,
    },
    /// A rule posted a new event.
    EventPosted {
        /// Origin object.
        from: Oid,
        /// Event name.
        event: String,
        /// Direction it travels.
        direction: Direction,
        /// `post … to <view>` target, if any.
        to_view: Option<String>,
    },
    /// An event crossed a link to another OID.
    Propagated {
        /// Sender end.
        from: Oid,
        /// Receiver end.
        to: Oid,
        /// Event name.
        event: String,
    },
    /// A delivery was skipped because the (OID, event) pair was already
    /// visited in this wave (cycle guard).
    CycleSkipped {
        /// The object that would have received the event again.
        oid: Oid,
        /// Event name.
        event: String,
    },
    /// A post cascade exceeded the policy depth limit and was truncated.
    DepthTruncated {
        /// Event that was dropped.
        event: String,
    },
    /// Template rules ran for a freshly created OID.
    TemplateApplied {
        /// The new object.
        oid: Oid,
        /// Properties attached.
        props_attached: usize,
        /// Links moved from the previous version.
        links_moved: usize,
        /// Links copied from the previous version.
        links_copied: usize,
    },
    /// An event targeted a view with no rules anywhere (strict policies may
    /// reject this instead).
    UnmatchedEvent {
        /// Receiving object.
        oid: Oid,
        /// Event name.
        event: String,
    },
}

/// The discriminant of an [`AuditRecord`], used by the run-time engine's
/// allocation-free counting path: when record retention is off, the engine
/// reports [`AuditLog::note`] with a kind instead of building a full record
/// (which would clone the OID and event name per delivery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// See [`AuditRecord::Delivered`].
    Delivered,
    /// See [`AuditRecord::Assigned`].
    Assigned,
    /// See [`AuditRecord::Reevaluated`].
    Reevaluated,
    /// See [`AuditRecord::ScriptInvoked`].
    ScriptInvoked,
    /// See [`AuditRecord::EventPosted`].
    EventPosted,
    /// See [`AuditRecord::Propagated`].
    Propagated,
    /// See [`AuditRecord::CycleSkipped`].
    CycleSkipped,
    /// See [`AuditRecord::DepthTruncated`].
    DepthTruncated,
    /// See [`AuditRecord::TemplateApplied`].
    TemplateApplied,
    /// See [`AuditRecord::UnmatchedEvent`].
    UnmatchedEvent,
    /// A detached tool invocation attempt failed and was pushed back for
    /// a retry (note-only: retries happen on pool workers, where building
    /// a record would mean cloning the script name per failure).
    InvokeRetried,
    /// A detached tool invocation attempt exceeded its wall-clock budget
    /// (note-only; every timeout also counts as a retry or an
    /// exhaustion).
    InvokeTimedOut,
    /// A detached tool invocation exhausted its whole retry budget and
    /// failed for good (note-only; the failure itself also lands in-band
    /// as a `tool_failed` event).
    InvokeExhausted,
}

impl AuditRecord {
    /// This record's counting discriminant.
    pub fn kind(&self) -> AuditKind {
        match self {
            AuditRecord::Delivered { .. } => AuditKind::Delivered,
            AuditRecord::Assigned { .. } => AuditKind::Assigned,
            AuditRecord::Reevaluated { .. } => AuditKind::Reevaluated,
            AuditRecord::ScriptInvoked { .. } => AuditKind::ScriptInvoked,
            AuditRecord::EventPosted { .. } => AuditKind::EventPosted,
            AuditRecord::Propagated { .. } => AuditKind::Propagated,
            AuditRecord::CycleSkipped { .. } => AuditKind::CycleSkipped,
            AuditRecord::DepthTruncated { .. } => AuditKind::DepthTruncated,
            AuditRecord::TemplateApplied { .. } => AuditKind::TemplateApplied,
            AuditRecord::UnmatchedEvent { .. } => AuditKind::UnmatchedEvent,
        }
    }
}

/// Aggregate counters over an [`AuditLog`].
///
/// Summaries are additive: merging per-worker wave buffers sums them (see
/// [`AuditLog::absorb`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditSummary {
    /// Rule-executing deliveries.
    pub deliveries: u64,
    /// Property writes.
    pub assignments: u64,
    /// Continuous-assignment evaluations.
    pub reevaluations: u64,
    /// Script invocations (exec + notify).
    pub scripts: u64,
    /// Events posted by rules.
    pub posts: u64,
    /// Link crossings.
    pub propagations: u64,
    /// Cycle-guard skips.
    pub cycle_skips: u64,
    /// Depth truncations.
    pub depth_truncations: u64,
    /// Template applications.
    pub templates: u64,
    /// Detached invocation attempts retried after a failure.
    pub invoke_retries: u64,
    /// Detached invocation attempts that exceeded their wall-clock
    /// budget.
    pub invoke_timeouts: u64,
    /// Detached invocations that exhausted their whole retry budget.
    pub invoke_exhaustions: u64,
}

impl AuditSummary {
    /// Adds another summary's counters into this one.
    pub fn add(&mut self, other: &AuditSummary) {
        self.deliveries += other.deliveries;
        self.assignments += other.assignments;
        self.reevaluations += other.reevaluations;
        self.scripts += other.scripts;
        self.posts += other.posts;
        self.propagations += other.propagations;
        self.cycle_skips += other.cycle_skips;
        self.depth_truncations += other.depth_truncations;
        self.templates += other.templates;
        self.invoke_retries += other.invoke_retries;
        self.invoke_timeouts += other.invoke_timeouts;
        self.invoke_exhaustions += other.invoke_exhaustions;
    }
}

/// An append-only audit log with optional record retention.
///
/// With retention off (the default for benches) only the counters are kept,
/// so measurement does not pay allocation costs per record.
#[derive(Debug, Default)]
pub struct AuditLog {
    records: Vec<AuditRecord>,
    retain: bool,
    summary: AuditSummary,
}

impl AuditLog {
    /// A log that keeps counters only.
    pub fn counters_only() -> Self {
        AuditLog::default()
    }

    /// A log that also retains every record.
    pub fn retaining() -> Self {
        AuditLog {
            retain: true,
            ..Default::default()
        }
    }

    /// Whether full records are retained.
    pub fn is_retaining(&self) -> bool {
        self.retain
    }

    /// Whether callers should build full [`AuditRecord`]s at all — an alias
    /// of [`AuditLog::is_retaining`] named for the hot path's question. When
    /// this is `false` the engine reports [`AuditLog::note`] instead,
    /// skipping every per-record OID/string clone; counters stay exact
    /// either way.
    pub fn enabled(&self) -> bool {
        self.is_retaining()
    }

    /// Counts an action without materializing its record — the
    /// allocation-free path used when retention is off.
    pub fn note(&mut self, kind: AuditKind) {
        match kind {
            AuditKind::Delivered => self.summary.deliveries += 1,
            AuditKind::Assigned => self.summary.assignments += 1,
            AuditKind::Reevaluated => self.summary.reevaluations += 1,
            AuditKind::ScriptInvoked => self.summary.scripts += 1,
            AuditKind::EventPosted => self.summary.posts += 1,
            AuditKind::Propagated => self.summary.propagations += 1,
            AuditKind::CycleSkipped => self.summary.cycle_skips += 1,
            AuditKind::DepthTruncated => self.summary.depth_truncations += 1,
            AuditKind::TemplateApplied => self.summary.templates += 1,
            AuditKind::UnmatchedEvent => {}
            AuditKind::InvokeRetried => self.summary.invoke_retries += 1,
            AuditKind::InvokeTimedOut => self.summary.invoke_timeouts += 1,
            AuditKind::InvokeExhausted => self.summary.invoke_exhaustions += 1,
        }
    }

    /// Appends a record, updating counters.
    pub fn push(&mut self, record: AuditRecord) {
        self.note(record.kind());
        if self.retain {
            self.records.push(record);
        }
    }

    /// The counters.
    pub fn summary(&self) -> AuditSummary {
        self.summary
    }

    /// Retained records (empty unless [`AuditLog::retaining`]).
    pub fn records(&self) -> &[AuditRecord] {
        &self.records
    }

    /// Clears records and counters.
    pub fn reset(&mut self) {
        self.records.clear();
        self.summary = AuditSummary::default();
    }

    /// A fresh, empty buffer with this log's retention setting — what a
    /// wave lane records one event into. Buffers come back through
    /// [`AuditLog::absorb`] as the drain loop lands each event, in queue
    /// order (within one event, wave order), so the merged log is
    /// byte-identical to sequential execution's.
    pub fn buffer(&self) -> AuditLog {
        AuditLog {
            records: Vec::new(),
            retain: self.retain,
            summary: AuditSummary::default(),
        }
    }

    /// Merges a worker buffer into this log: counters are summed and
    /// retained records appended in the buffer's order.
    pub fn absorb(&mut self, mut buffer: AuditLog) {
        self.summary.add(&buffer.summary);
        if self.retain {
            self.records.append(&mut buffer.records);
        }
    }

    /// Retained records matching a predicate.
    pub fn filtered<'a>(
        &'a self,
        pred: impl Fn(&AuditRecord) -> bool + 'a,
    ) -> impl Iterator<Item = &'a AuditRecord> + 'a {
        self.records.iter().filter(move |r| pred(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid() -> Oid {
        Oid::new("cpu", "schematic", 1)
    }

    #[test]
    fn counters_without_retention() {
        let mut log = AuditLog::counters_only();
        log.push(AuditRecord::Delivered {
            oid: oid(),
            event: "ckin".into(),
        });
        log.push(AuditRecord::Propagated {
            from: oid(),
            to: Oid::new("reg", "schematic", 1),
            event: "outofdate".into(),
        });
        assert_eq!(log.summary().deliveries, 1);
        assert_eq!(log.summary().propagations, 1);
        assert!(log.records().is_empty());
    }

    #[test]
    fn retention_keeps_records_in_order() {
        let mut log = AuditLog::retaining();
        log.push(AuditRecord::Delivered {
            oid: oid(),
            event: "ckin".into(),
        });
        log.push(AuditRecord::Assigned {
            oid: oid(),
            prop: "uptodate".into(),
            old: Some(Value::Bool(false)),
            new: Value::Bool(true),
        });
        assert_eq!(log.records().len(), 2);
        assert!(matches!(log.records()[0], AuditRecord::Delivered { .. }));
        assert_eq!(log.summary().assignments, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut log = AuditLog::retaining();
        log.push(AuditRecord::DepthTruncated {
            event: "spin".into(),
        });
        log.reset();
        assert_eq!(log.summary(), AuditSummary::default());
        assert!(log.records().is_empty());
    }

    #[test]
    fn invocation_fault_notes_count_without_retention() {
        let mut log = AuditLog::counters_only();
        log.note(AuditKind::InvokeRetried);
        log.note(AuditKind::InvokeRetried);
        log.note(AuditKind::InvokeTimedOut);
        log.note(AuditKind::InvokeExhausted);
        assert_eq!(log.summary().invoke_retries, 2);
        assert_eq!(log.summary().invoke_timeouts, 1);
        assert_eq!(log.summary().invoke_exhaustions, 1);
        assert!(log.records().is_empty());

        let mut main = AuditLog::counters_only();
        main.absorb(log);
        assert_eq!(main.summary().invoke_retries, 2);
    }

    #[test]
    fn filtered_selects_by_kind() {
        let mut log = AuditLog::retaining();
        log.push(AuditRecord::Delivered {
            oid: oid(),
            event: "a".into(),
        });
        log.push(AuditRecord::ScriptInvoked {
            script: "netlister".into(),
            args: vec!["cpu,schematic,1".into()],
            notify: false,
        });
        let scripts: Vec<_> = log
            .filtered(|r| matches!(r, AuditRecord::ScriptInvoked { .. }))
            .collect();
        assert_eq!(scripts.len(), 1);
    }
}
