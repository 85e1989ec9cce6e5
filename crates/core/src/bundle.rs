//! Assembling per-PE collectors into a world-wide trace bundle.

use actorprof_trace::{OverallRecord, PapiRecord, PeCollector, SendType};
use fabsp_hwpc::Event;

use crate::error::ProfError;
use crate::stats::Matrix;

/// The complete trace of one FA-BSP run: one collector per PE, plus
/// derived world-wide views (matrices, per-PE totals).
#[derive(Debug)]
pub struct TraceBundle {
    collectors: Vec<PeCollector>,
}

impl TraceBundle {
    /// Assemble from the per-PE collectors an SPMD run returned
    /// (rank order required — `fabsp_shmem::spmd::run` returns it so).
    pub fn from_collectors(collectors: Vec<PeCollector>) -> Result<TraceBundle, ProfError> {
        if collectors.is_empty() {
            return Err(ProfError::BadBundle("no collectors".into()));
        }
        let n = collectors[0].n_pes();
        if collectors.len() != n {
            return Err(ProfError::BadBundle(format!(
                "{} collectors for a {}-PE world",
                collectors.len(),
                n
            )));
        }
        for (rank, c) in collectors.iter().enumerate() {
            if c.pe() as usize != rank {
                return Err(ProfError::BadBundle(format!(
                    "collector {rank} reports PE {}",
                    c.pe()
                )));
            }
            if c.n_pes() != n {
                return Err(ProfError::BadBundle("mixed world sizes".into()));
            }
        }
        Ok(TraceBundle { collectors })
    }

    /// Number of PEs.
    pub fn n_pes(&self) -> usize {
        self.collectors.len()
    }

    /// PEs per node (for node derivation in file formats).
    pub fn pes_per_node(&self) -> usize {
        self.collectors[0].pes_per_node()
    }

    /// The per-PE collectors, rank-ordered.
    pub fn collectors(&self) -> &[PeCollector] {
        &self.collectors
    }

    /// Whether the logical trace was collected.
    pub fn has_logical(&self) -> bool {
        self.collectors.iter().all(|c| c.config().logical)
    }

    /// Whether the physical trace was collected.
    pub fn has_physical(&self) -> bool {
        self.collectors.iter().all(|c| c.config().physical)
    }

    /// Whether the overall breakdown was collected.
    pub fn has_overall(&self) -> bool {
        self.collectors.iter().all(|c| c.overall().is_some())
    }

    /// Whether phase spans were collected.
    pub fn has_spans(&self) -> bool {
        self.collectors.iter().all(|c| c.config().spans)
    }

    /// The logical send-count matrix (pre-aggregation messages):
    /// entry (src, dst) = number of messages src sent to dst. This is the
    /// data of the Fig 3/4 heatmaps.
    pub fn logical_matrix(&self) -> Result<Matrix, ProfError> {
        if !self.has_logical() {
            return Err(ProfError::NotCollected("logical trace"));
        }
        let n = self.n_pes();
        let mut m = Matrix::zeros(n);
        for (src, c) in self.collectors.iter().enumerate() {
            for (dst, cell) in c.logical_matrix().iter().enumerate() {
                m.add(src, dst, cell.sends);
            }
        }
        Ok(m)
    }

    /// Like [`logical_matrix`](Self::logical_matrix) but counting payload
    /// bytes.
    pub fn logical_bytes_matrix(&self) -> Result<Matrix, ProfError> {
        if !self.has_logical() {
            return Err(ProfError::NotCollected("logical trace"));
        }
        let n = self.n_pes();
        let mut m = Matrix::zeros(n);
        for (src, c) in self.collectors.iter().enumerate() {
            for (dst, cell) in c.logical_matrix().iter().enumerate() {
                m.add(src, dst, cell.bytes);
            }
        }
        Ok(m)
    }

    /// The physical buffer-count matrix (post-aggregation sends), the data
    /// of the Fig 8/9 heatmaps. `kind = None` counts `local_send` +
    /// `nonblock_send` (actual buffer movements, excluding the signalling
    /// `nonblock_progress` entries); `Some(t)` filters one class.
    pub fn physical_matrix(&self, kind: Option<SendType>) -> Result<Matrix, ProfError> {
        if !self.has_physical() {
            return Err(ProfError::NotCollected("physical trace"));
        }
        let n = self.n_pes();
        let mut m = Matrix::zeros(n);
        for c in &self.collectors {
            for ev in c.physical_records().events() {
                let include = match kind {
                    Some(k) => ev.is(k),
                    None => !ev.is(SendType::NonblockProgress),
                };
                if include {
                    m.add(c.pe() as usize, ev.dst_pe() as usize, 1);
                }
            }
        }
        Ok(m)
    }

    /// Per-PE overall breakdowns (Figs 12/13).
    pub fn overall_records(&self) -> Result<Vec<OverallRecord>, ProfError> {
        self.collectors
            .iter()
            .map(|c| c.overall().ok_or(ProfError::NotCollected("overall profile")))
            .collect()
    }

    /// All PAPI message-trace lines of one PE.
    pub fn papi_records(&self, pe: usize) -> Vec<PapiRecord> {
        self.collectors[pe].papi_records()
    }

    /// Per-PE total of `event` over the instrumented user regions
    /// (MAIN + PROC) — the series of Figs 10/11 ("we instrument the regime
    /// of user-provided code and exclude the Conveyors and HClib-Actor
    /// system").
    pub fn papi_user_region_totals(&self, event: Event) -> Result<Vec<u64>, ProfError> {
        self.collectors
            .iter()
            .map(|c| {
                c.region_profile()
                    .map(|p| p.main.events[event.index()] + p.proc.events[event.index()])
                    .ok_or(ProfError::NotCollected("region profile"))
            })
            .collect()
    }

    /// Per-PE MAIN-region totals of `event`.
    pub fn papi_main_totals(&self, event: Event) -> Result<Vec<u64>, ProfError> {
        self.collectors
            .iter()
            .map(|c| {
                c.region_profile()
                    .map(|p| p.main.events[event.index()])
                    .ok_or(ProfError::NotCollected("region profile"))
            })
            .collect()
    }

    /// Per-PE PROC-region totals of `event`.
    pub fn papi_proc_totals(&self, event: Event) -> Result<Vec<u64>, ProfError> {
        self.collectors
            .iter()
            .map(|c| {
                c.region_profile()
                    .map(|p| p.proc.events[event.index()])
                    .ok_or(ProfError::NotCollected("region profile"))
            })
            .collect()
    }

    /// Total recorded trace footprint in bytes (§IV-E's concern).
    pub fn trace_bytes(&self) -> usize {
        self.collectors.iter().map(|c| c.trace_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorprof_trace::TraceConfig;

    fn mini_bundle() -> TraceBundle {
        // 2 PEs, 1 node; PE0 sends 3 msgs to PE1 and 1 to itself;
        // PE1 sends 2 to PE0.
        let cfg = TraceConfig::off().with_logical().with_physical();
        let mut c0 = PeCollector::new(0, 2, 2, cfg.clone());
        c0.record_send(1, 8, 0, None);
        c0.record_send(1, 8, 0, None);
        c0.record_send(1, 8, 0, None);
        c0.record_send(0, 8, 0, None);
        c0.record_physical(SendType::LocalSend, 64, 1);
        let mut c1 = PeCollector::new(1, 2, 2, cfg);
        c1.record_send(0, 8, 0, None);
        c1.record_send(0, 8, 0, None);
        c1.record_physical(SendType::LocalSend, 64, 0);
        c1.record_physical(SendType::NonblockProgress, 64, 0);
        TraceBundle::from_collectors(vec![c0, c1]).unwrap()
    }

    #[test]
    fn logical_matrix_from_collectors() {
        let b = mini_bundle();
        let m = b.logical_matrix().unwrap();
        assert_eq!(m.get(0, 1), 3);
        assert_eq!(m.get(0, 0), 1);
        assert_eq!(m.get(1, 0), 2);
        assert_eq!(m.row_totals(), vec![4, 2]);
        assert_eq!(m.col_totals(), vec![3, 3]);
        let bytes = b.logical_bytes_matrix().unwrap();
        assert_eq!(bytes.get(0, 1), 24);
    }

    #[test]
    fn physical_matrix_excludes_progress_by_default() {
        let b = mini_bundle();
        let m = b.physical_matrix(None).unwrap();
        assert_eq!(m.get(0, 1), 1);
        assert_eq!(m.get(1, 0), 1);
        assert_eq!(m.total(), 2);
        let progress = b.physical_matrix(Some(SendType::NonblockProgress)).unwrap();
        assert_eq!(progress.get(1, 0), 1);
    }

    #[test]
    fn bundle_validation() {
        assert!(TraceBundle::from_collectors(vec![]).is_err());
        let c = PeCollector::new(0, 2, 2, TraceConfig::off());
        assert!(TraceBundle::from_collectors(vec![c]).is_err()); // 1 of 2
        let c0 = PeCollector::new(1, 2, 2, TraceConfig::off()); // wrong rank
        let c1 = PeCollector::new(1, 2, 2, TraceConfig::off());
        assert!(TraceBundle::from_collectors(vec![c0, c1]).is_err());
    }

    #[test]
    fn missing_traces_reported() {
        let c0 = PeCollector::new(0, 1, 1, TraceConfig::off());
        let b = TraceBundle::from_collectors(vec![c0]).unwrap();
        assert!(matches!(
            b.logical_matrix(),
            Err(ProfError::NotCollected("logical trace"))
        ));
        assert!(matches!(
            b.physical_matrix(None),
            Err(ProfError::NotCollected("physical trace"))
        ));
        assert!(b.overall_records().is_err());
        assert!(b.papi_user_region_totals(Event::TotIns).is_err());
    }

    #[test]
    fn papi_totals_from_region_profiles() {
        let mut c = PeCollector::new(0, 1, 1, TraceConfig::off());
        let mut profile = fabsp_hwpc::RegionProfile::default();
        profile.main.events[Event::TotIns.index()] = 100;
        profile.proc.events[Event::TotIns.index()] = 40;
        c.set_region_profile(profile);
        let b = TraceBundle::from_collectors(vec![c]).unwrap();
        assert_eq!(b.papi_user_region_totals(Event::TotIns).unwrap(), vec![140]);
        assert_eq!(b.papi_main_totals(Event::TotIns).unwrap(), vec![100]);
        assert_eq!(b.papi_proc_totals(Event::TotIns).unwrap(), vec![40]);
    }
}
