//! The `OsConfig`s the ledger boots: one per workload, and the variants of
//! the differential ablation, each flipping one field of the default.

use osiris::metrics::TimeseriesConfig;
use osiris::{
    AxiomConfig, EscalationPolicy, Instrumentation, MetricsConfig, OsConfig, PolicyKind,
    TraceConfig, WatchdogConfig,
};

pub fn default() -> OsConfig {
    OsConfig::default()
}

/// Every observability plane recording: `paper_observed`'s configuration
/// and the ablation's "all on".
pub fn observed() -> OsConfig {
    OsConfig {
        trace: TraceConfig::on(),
        axiom: AxiomConfig::on(),
        timeseries: TimeseriesConfig::on(),
        watchdog: WatchdogConfig::on(),
        ..OsConfig::default()
    }
}

/// `cfg` with the escalation ladder off, so a component may crash any
/// number of times without being quarantined.
pub fn unbounded(cfg: OsConfig) -> OsConfig {
    OsConfig {
        escalation: EscalationPolicy::unbounded(),
        ..cfg
    }
}

pub fn stateless() -> OsConfig {
    OsConfig::with_policy(PolicyKind::Stateless)
}

pub fn pessimistic() -> OsConfig {
    OsConfig::with_policy(PolicyKind::Pessimistic)
}

pub fn instr_off() -> OsConfig {
    OsConfig {
        instrumentation: Instrumentation::Off,
        ..OsConfig::default()
    }
}

pub fn instr_always() -> OsConfig {
    OsConfig {
        instrumentation: Instrumentation::Always,
        ..OsConfig::default()
    }
}

pub fn metrics_off() -> OsConfig {
    OsConfig {
        metrics: MetricsConfig::off(),
        ..OsConfig::default()
    }
}

pub fn trace_on() -> OsConfig {
    OsConfig {
        trace: TraceConfig::on(),
        ..OsConfig::default()
    }
}

pub fn axiom_on() -> OsConfig {
    OsConfig {
        axiom: AxiomConfig::on(),
        ..OsConfig::default()
    }
}

pub fn timeseries_on() -> OsConfig {
    OsConfig {
        timeseries: TimeseriesConfig::on(),
        ..OsConfig::default()
    }
}

pub fn watchdog_on() -> OsConfig {
    OsConfig {
        watchdog: WatchdogConfig::on(),
        ..OsConfig::default()
    }
}
