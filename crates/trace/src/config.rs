//! Trace configuration — the runtime equivalent of the paper's compile
//! flags (§III):
//!
//! | Paper flag | Field |
//! |---|---|
//! | `-DENABLE_TRACE` | [`TraceConfig::logical`] (+ optional [`TraceConfig::papi`]) |
//! | `-DENABLE_TCOMM_PROFILING` | [`TraceConfig::overall`] |
//! | `-DENABLE_TRACE_PHYSICAL` | [`TraceConfig::physical`] |
//!
//! In the C++ original these are compile-time so the untraced build carries
//! zero overhead; here they are runtime flags whose disabled paths are a
//! branch on a bool (measured by the benchmark's `msgs_per_s_off` column).

use fabsp_hwpc::{Event, MAX_EVENTS};

/// Errors constructing a trace configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceConfigError {
    /// More PAPI events than the hardware (and the paper) allow.
    TooManyPapiEvents { requested: usize },
    /// A PAPI event listed twice.
    DuplicatePapiEvent(Event),
    /// PAPI profiling requested with an empty event list.
    NoPapiEvents,
}

impl std::fmt::Display for TraceConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceConfigError::TooManyPapiEvents { requested } => write!(
                f,
                "at most {MAX_EVENTS} concurrent PAPI events (PAPI limit), {requested} requested"
            ),
            TraceConfigError::DuplicatePapiEvent(e) => write!(f, "PAPI event {e} listed twice"),
            TraceConfigError::NoPapiEvents => write!(f, "PAPI profiling needs at least one event"),
        }
    }
}

impl std::error::Error for TraceConfigError {}

/// Which PAPI events the message-aware profile records (§III-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PapiConfig {
    events: Vec<Event>,
}

impl PapiConfig {
    /// The configured events by their stable PAPI preset names — the
    /// on-disk/config-file representation (stable, readable, and avoids
    /// coupling the hwpc crate to an encoding library).
    pub fn papi_names(&self) -> Vec<&'static str> {
        self.events.iter().map(|e| e.papi_name()).collect()
    }

    /// Reconstruct a config from PAPI preset names, the inverse of
    /// [`PapiConfig::papi_names`]. Unknown names are reported verbatim.
    pub fn from_papi_names<S: AsRef<str>>(names: &[S]) -> Result<PapiConfig, String> {
        let events = names
            .iter()
            .map(|n| {
                Event::from_papi_name(n.as_ref())
                    .ok_or_else(|| format!("unknown PAPI event: {}", n.as_ref()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        PapiConfig::new(&events).map_err(|e| e.to_string())
    }

    /// Configure up to [`MAX_EVENTS`] distinct events.
    pub fn new(events: &[Event]) -> Result<PapiConfig, TraceConfigError> {
        if events.is_empty() {
            return Err(TraceConfigError::NoPapiEvents);
        }
        if events.len() > MAX_EVENTS {
            return Err(TraceConfigError::TooManyPapiEvents {
                requested: events.len(),
            });
        }
        for (i, e) in events.iter().enumerate() {
            if events[..i].contains(e) {
                return Err(TraceConfigError::DuplicatePapiEvent(*e));
            }
        }
        Ok(PapiConfig {
            events: events.to_vec(),
        })
    }

    /// The paper's case-study pair: `PAPI_TOT_INS` and `PAPI_LST_INS`.
    pub fn case_study() -> PapiConfig {
        PapiConfig::new(&[Event::TotIns, Event::LstIns]).expect("two distinct events")
    }

    /// The configured events, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

/// What to trace during an FA-BSP run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceConfig {
    /// Record the pre-aggregation logical trace (`-DENABLE_TRACE`).
    pub logical: bool,
    /// Record the PAPI message trace for these events (part of
    /// `-DENABLE_TRACE` + `PAPI_start`/`PAPI_stop` placement).
    pub papi: Option<PapiConfig>,
    /// Record the MAIN/COMM/PROC overall breakdown
    /// (`-DENABLE_TCOMM_PROFILING`).
    pub overall: bool,
    /// Record the post-aggregation physical trace inside Conveyors
    /// (`-DENABLE_TRACE_PHYSICAL`).
    pub physical: bool,
    /// Keep every k-th exact per-send `PEi_send.csv` record of the
    /// logical trace: 1 keeps them all, 0 (the default) none. The
    /// aggregate matrix is always exact and alone reproduces the heatmaps,
    /// avoiding the trace bloat the paper warns about (§IV-E); a stride
    /// above 1 bounds the per-send record volume — the "intelligent
    /// sampling of traces" direction of §VI.
    pub logical_sample: u32,
    /// Record phase spans (superstep / advance / quiet / relay-hop
    /// begin+end pairs), exported as Perfetto duration events.
    pub spans: bool,
}

impl TraceConfig {
    /// Everything disabled — the unprofiled production configuration.
    pub fn off() -> TraceConfig {
        TraceConfig::default()
    }

    /// Every trace enabled, PAPI with the paper's case-study events.
    pub fn all() -> TraceConfig {
        TraceConfig {
            logical: true,
            papi: Some(PapiConfig::case_study()),
            overall: true,
            physical: true,
            logical_sample: 0,
            spans: true,
        }
    }

    /// Enable the logical trace (`-DENABLE_TRACE`).
    pub fn with_logical(mut self) -> TraceConfig {
        self.logical = true;
        self
    }

    /// Keep exact per-send records too (implies logical).
    pub fn with_logical_records(self) -> TraceConfig {
        self.with_logical_sampling(1)
    }

    /// Keep only every `k`-th exact logical record (implies
    /// [`with_logical_records`](TraceConfig::with_logical_records); 0
    /// keeps every record, as 1 does).
    pub fn with_logical_sampling(mut self, k: u32) -> TraceConfig {
        self.logical = true;
        self.logical_sample = k.max(1);
        self
    }

    /// Enable PAPI message tracing for `events`.
    pub fn with_papi(mut self, papi: PapiConfig) -> TraceConfig {
        self.papi = Some(papi);
        self
    }

    /// Enable the overall breakdown (`-DENABLE_TCOMM_PROFILING`).
    pub fn with_overall(mut self) -> TraceConfig {
        self.overall = true;
        self
    }

    /// Enable the physical trace (`-DENABLE_TRACE_PHYSICAL`).
    pub fn with_physical(mut self) -> TraceConfig {
        self.physical = true;
        self
    }

    /// Enable phase spans (every span kept).
    pub fn with_spans(mut self) -> TraceConfig {
        self.spans = true;
        self
    }

    /// Whether any tracing at all is enabled.
    pub fn any_enabled(&self) -> bool {
        self.logical || self.papi.is_some() || self.overall || self.physical || self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn papi_config_enforces_limit() {
        let err = PapiConfig::new(&[
            Event::TotIns,
            Event::LstIns,
            Event::BrIns,
            Event::BrMsp,
            Event::L1Dcm,
        ])
        .unwrap_err();
        assert_eq!(err, TraceConfigError::TooManyPapiEvents { requested: 5 });
        assert_eq!(
            PapiConfig::new(&[]).unwrap_err(),
            TraceConfigError::NoPapiEvents
        );
        assert_eq!(
            PapiConfig::new(&[Event::TotIns, Event::TotIns]).unwrap_err(),
            TraceConfigError::DuplicatePapiEvent(Event::TotIns)
        );
    }

    #[test]
    fn case_study_events_match_paper() {
        let p = PapiConfig::case_study();
        assert_eq!(p.events(), &[Event::TotIns, Event::LstIns]);
    }

    #[test]
    fn builder_composes_flags() {
        let c = TraceConfig::off()
            .with_logical()
            .with_overall()
            .with_physical();
        assert!(c.logical && c.overall && c.physical);
        assert_eq!(c.logical_sample, 0, "no exact records");
        assert!(c.papi.is_none());
        assert!(c.any_enabled());
        assert!(!TraceConfig::off().any_enabled());
    }

    #[test]
    fn logical_records_implies_logical() {
        let c = TraceConfig::off().with_logical_records();
        assert!(c.logical);
        assert_eq!(c.logical_sample, 1);
    }

    #[test]
    fn sampling_clamps_and_implies_records() {
        let c = TraceConfig::off().with_logical_sampling(0);
        assert_eq!(c.logical_sample, 1, "0 clamps to keep-all");
        assert!(c.logical);
        let c = TraceConfig::off().with_logical_sampling(10);
        assert_eq!(c.logical_sample, 10);
        assert!(c.logical);
    }

    #[test]
    fn papi_config_name_roundtrip() {
        let c = PapiConfig::case_study();
        let names = c.papi_names();
        assert!(names.contains(&"PAPI_TOT_INS"), "events named by preset");
        let back = PapiConfig::from_papi_names(&names).unwrap();
        assert_eq!(back, c);
        assert!(PapiConfig::from_papi_names(&["PAPI_NOPE"])
            .unwrap_err()
            .contains("PAPI_NOPE"));
    }

    #[test]
    fn all_enables_everything() {
        let c = TraceConfig::all();
        assert!(c.logical && c.overall && c.physical && c.papi.is_some());
        assert!(c.spans);
    }
}
