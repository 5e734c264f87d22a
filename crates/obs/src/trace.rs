//! Per-request trace timelines on the *virtual trace clock*.
//!
//! A timeline-enabled [`crate::Recorder`] keeps an ordered stream of
//! begin/end/instant events. Timestamps come from a dedicated monotonic
//! counter (`vnow`) that advances by one logical nanosecond per recorded
//! event plus the *modeled* virtual-clock nanoseconds the instrumented code
//! reports via [`crate::Recorder::trace_advance`]. Wall-clock time never
//! touches a timestamp, so the same seed yields a byte-identical timeline
//! at every worker-pool size — the timeline is an execution transcript, not
//! a measurement.
//!
//! Events are only ever recorded from serial contexts (the session request
//! path, pipeline stages, the ECALL dispatcher, EPC touches inside an ECALL
//! body, the retry loop); worker threads touch counters only. That is what
//! makes the event *order* deterministic, not just the aggregate totals.

/// The Chrome trace-event phase of one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Opens a duration slice (`ph: "B"`).
    Begin,
    /// Closes the innermost open slice (`ph: "E"`).
    End,
    /// A zero-width marker (`ph: "i"`).
    Instant,
}

/// One recorded timeline event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Begin / end / instant.
    pub phase: TracePhase,
    /// Event name (span-taxonomy style, e.g. `ecall.ecall_activation`).
    pub name: String,
    /// Virtual trace-clock timestamp in logical nanoseconds.
    pub ts_ns: u64,
    /// Key/value annotations (deterministic content only).
    pub args: Vec<(String, String)>,
}

/// Hard cap on stored events: beyond it the timeline stops growing and
/// counts drops instead — observability must never balloon a long-running
/// session's memory.
pub(crate) const MAX_TRACE_EVENTS: usize = 1 << 20;

/// Timeline storage inside the recorder state.
#[derive(Debug, Default)]
pub(crate) struct TraceState {
    /// The virtual trace clock, in logical nanoseconds.
    pub vnow: u64,
    /// Recorded events in order.
    pub events: Vec<TraceEvent>,
    /// Events refused by the [`MAX_TRACE_EVENTS`] cap.
    pub dropped: u64,
    /// Stored slices whose End is still to come: each holds one slot under
    /// the cap, so a stored Begin always gets its End.
    open: usize,
}

impl TraceState {
    /// Opens a slice. Its Begin is stored only when its End fits under the
    /// cap too; returns whether it was, which [`TraceState::end`] takes back.
    pub fn begin(&mut self, name: &str, args: &[(&str, String)]) -> bool {
        let fits = self.events.len() + self.open + 2 <= MAX_TRACE_EVENTS;
        self.push(fits, TracePhase::Begin, name, args);
        self.open += usize::from(fits);
        fits
    }

    /// Closes a slice: its End is stored exactly when its Begin was.
    pub fn end(&mut self, name: &str, begun: bool) {
        self.open = self.open.saturating_sub(usize::from(begun));
        self.push(begun, TracePhase::End, name, &[]);
    }

    /// Drops a zero-width marker, unless only reserved slots are left.
    pub fn instant(&mut self, name: &str, args: &[(&str, String)]) {
        let fits = self.events.len() + self.open < MAX_TRACE_EVENTS;
        self.push(fits, TracePhase::Instant, name, args);
    }

    /// Stores one event at the current clock (or counts it as dropped),
    /// then ticks the clock by one logical nanosecond so consecutive events
    /// carry distinct, strictly ordered timestamps. The tick happens even
    /// for dropped events, so a capped timeline still advances
    /// deterministically.
    fn push(&mut self, store: bool, phase: TracePhase, name: &str, args: &[(&str, String)]) {
        if store {
            self.events.push(TraceEvent {
                phase,
                name: name.to_owned(),
                ts_ns: self.vnow,
                args: args
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone()))
                    .collect(),
            });
        } else {
            self.dropped = self.dropped.saturating_add(1);
        }
        self.vnow = self.vnow.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_ticks_the_clock_and_orders_events() {
        let mut t = TraceState::default();
        let begun = t.begin("a", &[]);
        t.vnow = t.vnow.saturating_add(100);
        t.end("a", begun);
        assert_eq!(t.events[0].ts_ns, 0);
        assert_eq!(t.events[1].ts_ns, 101);
        assert!(t.events[0].ts_ns < t.events[1].ts_ns);
    }

    #[test]
    fn args_are_copied_in_order() {
        let mut t = TraceState::default();
        t.instant("x", &[("k", "v".to_owned()), ("n", "3".to_owned())]);
        assert_eq!(
            t.events[0].args,
            vec![
                ("k".to_owned(), "v".to_owned()),
                ("n".to_owned(), "3".to_owned())
            ]
        );
    }

    /// Near the cap a Begin is stored only with room for its End, and an
    /// open slice's End is stored even when instants have filled the rest.
    #[test]
    fn the_cap_keeps_stored_slices_balanced() {
        let mut t = TraceState::default();
        for _ in 0..MAX_TRACE_EVENTS - 3 {
            t.instant("", &[]);
        }
        let outer = t.begin("outer", &[]);
        let inner = t.begin("inner", &[]);
        assert!(outer && !inner, "the inner slice's End would not fit");
        t.instant("i", &[]);
        t.end("inner", inner);
        t.end("outer", outer);
        assert_eq!(t.events.len(), MAX_TRACE_EVENTS);
        assert_eq!(t.events.last().map(|e| e.phase), Some(TracePhase::End));
        assert_eq!(t.dropped, 2);
        assert_eq!(t.vnow, MAX_TRACE_EVENTS as u64 + 2);
    }
}
