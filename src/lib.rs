//! Convenience prelude for the sioscope reproduction's examples and
//! integration tests: one `use sioscope_repro::prelude::*;` brings the
//! whole toolkit into scope.
//!
//! The canonical outputs of the reproduction live in `artifacts/`
//! (regenerate with `cargo run -p sioscope-bench --bin repro --release
//! -- --sweeps --out artifacts`).

/// Everything an experiment script typically needs.
pub mod prelude {
    pub use sioscope::experiments::{run_experiment, Experiment, Scale};
    pub use sioscope::simulator::{run, RunResult, SimError, SimOptions};
    pub use sioscope::sweeps;
    pub use sioscope_analysis::{
        classify_all, detect_phases_indexed, BandwidthSeries, Cdf, ConcurrencyProfile, Evolution,
        IoClass, LogHistogram, ModeUsage, NodeBalance, Timeline,
    };
    pub use sioscope_machine::MachineConfig;
    pub use sioscope_pfs::{IoMode, IoOp, OpKind, Pfs, PfsConfig, PolicyConfig};
    pub use sioscope_sim::{FileId, NodeId, Pid, Time};
    pub use sioscope_trace::{IoEvent, TraceRecorder};
    pub use sioscope_workloads::{
        EscatConfig, EscatVersion, PrismConfig, PrismVersion, Stmt, Workload,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_toolkit() {
        use crate::prelude::*;
        let w = EscatConfig::tiny(EscatVersion::C).build();
        let cfg = PfsConfig::caltech(w.nodes, w.os);
        let r = run(&w, cfg, SimOptions::default()).expect("runs");
        assert!(r.exec_time > Time::ZERO);
        let _cdf = Cdf::of_kind(&r.trace.into_index(), OpKind::Read);
    }
}
