//! Deterministic cockpit/dashboard fixtures, shared between the golden
//! tests (`tests/viz_golden.rs`) and the CI smoke binary
//! (`bin/cockpit_smoke.rs`) so both gate on the *same* bytes.
//!
//! Everything here is hand-stamped: counter values, span cycle ranges,
//! frame `at_cycles`, and overhead windows are fixed constants, and phase
//! attribution goes through [`fixture_site`] instead of the runtime's
//! first-caller-wins registry. The renders are therefore pure functions —
//! byte-stable across machines, thread schedules, and test orderings.

use actorprof::{
    Counter, Frame, Gauge, OverheadBudget, OverheadWindow, Phase, Snapshot, TelemetryRegistry,
};
use actorprof_viz::ascii;
use actorprof_viz::cockpit::{Cockpit, CockpitConfig};
use fabsp_telemetry::{FlightDump, FlightRing, PhaseSite};

/// Pinned phase → `file:line` attribution for golden renders.
pub fn fixture_site(phase: Phase) -> Option<PhaseSite> {
    Some(match phase {
        Phase::Superstep => ("crates/actor/src/selector.rs", 100),
        Phase::Advance => ("crates/conveyors/src/convey.rs", 200),
        Phase::Quiet => ("crates/shmem/src/quiet.rs", 300),
        Phase::RelayHop => ("crates/conveyors/src/relay.rs", 400),
    })
}

fn tick(
    cockpit: &mut Cockpit,
    reg: &TelemetryRegistry,
    seq: u64,
    at_cycles: u64,
    prev: &mut Snapshot,
    overhead_pct: f64,
) -> String {
    let total = reg.snapshot();
    let frame = Frame {
        seq,
        at_cycles,
        delta: total.diff(prev),
        total: total.clone(),
        overhead: Some(OverheadWindow {
            window: seq,
            at_cycles,
            overhead_pct,
            within_budget: overhead_pct <= OverheadBudget::default().pct,
            ..OverheadWindow::default()
        }),
    };
    *prev = total;
    cockpit.render(&frame)
}

/// Three cockpit ticks of a synthetic 4-PE run: ramp-up, steady state,
/// and a tick with a net retry, against the default 5% overhead budget.
pub fn cockpit_live() -> String {
    let reg = TelemetryRegistry::new(4);
    let mut cockpit = Cockpit::new(CockpitConfig::plain(fixture_site));
    let half = fabsp_hwpc::NOMINAL_HZ / 2;
    let mut prev = Snapshot::default();
    let mut out = String::new();

    // tick 0: uneven ramp-up, first superstep under way, over budget.
    for pe in 0..4 {
        reg.pe(pe).add(Counter::ActorSends, 120 * (pe as u64 + 1));
    }
    reg.pe(3).gauge_set(Gauge::ConveyorBufferedItems, 12);
    reg.pe(0).gauge_set(Gauge::ConveyorPullBacklog, 3);
    reg.pe(0).flight_span(Phase::Superstep, 1_000, 50_000); // 20.0us
    reg.pe(1).flight_span(Phase::Advance, 2_000, 26_500); // 10.0us
    reg.pe(2).flight_span(Phase::Quiet, 3_000, 10_350); // 3.0us
    out.push_str(&tick(&mut cockpit, &reg, 0, 2 * half, &mut prev, 7.50));

    // tick 1: half a nominal second later — true rates kick in, back
    // under budget.
    reg.pe(0).add(Counter::ActorSends, 600);
    reg.pe(1).add(Counter::ActorSends, 300);
    reg.pe(2).add(Counter::ActorSends, 200);
    reg.pe(3).add(Counter::ActorSends, 100);
    reg.pe(3).gauge_set(Gauge::ConveyorBufferedItems, 4);
    reg.pe(1).flight_span(Phase::Superstep, 60_000, 109_000); // 20.0us
    reg.pe(0).flight_span(Phase::Advance, 60_000, 84_500); // 10.0us
    out.push_str(&tick(&mut cockpit, &reg, 1, 3 * half, &mut prev, 4.10));

    // tick 2: second superstep reached.
    reg.pe(0).add(Counter::ActorSends, 150);
    reg.pe(1).add(Counter::ActorSends, 450);
    reg.pe(0).flight_span(Phase::Superstep, 200_000, 249_000); // 20.0us
    reg.pe(3).flight_span(Phase::RelayHop, 210_000, 212_450); // 1.0us
    out.push_str(&tick(&mut cockpit, &reg, 2, 4 * half, &mut prev, 2.30));
    out
}

/// A two-PE flight-recorder replay: pe0 overflows its 4-slot ring (the
/// "older dropped" path), pe1 supplies the earliest stamp both dumps are
/// rebased against.
pub fn cockpit_replay() -> String {
    let r0 = FlightRing::new(4);
    r0.span(Phase::Superstep, 2_450_000, 7_350_000); // evicted by the 5th
    r0.span(Phase::Advance, 7_350_000, 9_800_000);
    r0.note(Counter::ConveyorPushRetries, 3, 12_250_000);
    r0.span(Phase::Quiet, 12_250_000, 12_495_000);
    r0.span(Phase::Superstep, 14_700_000, 19_600_000);
    let d0 = FlightDump::parse(&r0.to_json(0)).expect("pe0 dump");
    let r1 = FlightRing::new(4);
    r1.span(Phase::Advance, 4_900_000, 7_350_000);
    r1.note(Counter::ConveyorRelayParks, 1, 8_575_000);
    let d1 = FlightDump::parse(&r1.to_json(1)).expect("pe1 dump");
    let cockpit = Cockpit::new(CockpitConfig::plain(fixture_site));
    cockpit.render_replay(&[d0, d1])
}

/// Two consecutive `ascii::dashboard_since` frames: the first renders raw
/// deltas (no previous stamp), the second true per-interval rates.
pub fn dashboard_frames() -> String {
    let reg = TelemetryRegistry::new(2);
    reg.pe(0).add(Counter::ActorSends, 300);
    reg.pe(1).add(Counter::ActorSends, 150);
    reg.pe(0).add(Counter::ShmemPuts, 40);
    reg.pe(0).gauge_set(Gauge::ConveyorBufferedItems, 6);
    reg.pe(1).gauge_set(Gauge::ConveyorPullBacklog, 2);
    reg.pe(0).flight_span(Phase::Advance, 0, 1_000);
    let first = reg.snapshot();
    let f0 = Frame {
        seq: 0,
        at_cycles: fabsp_hwpc::NOMINAL_HZ,
        delta: first.diff(&Snapshot::default()),
        total: first.clone(),
        overhead: None,
    };
    let mut out = ascii::dashboard_since(&f0, None);

    // Half a nominal second later: 490 sends → 980/s, 100 puts → 200/s.
    reg.pe(0).add(Counter::ActorSends, 350);
    reg.pe(1).add(Counter::ActorSends, 140);
    reg.pe(0).add(Counter::ShmemPuts, 100);
    reg.pe(1).add(Counter::ConveyorPushRetries, 7);
    reg.pe(0).flight_span(Phase::Advance, 1_000, 3_000);
    let total = reg.snapshot();
    let f1 = Frame {
        seq: 1,
        at_cycles: fabsp_hwpc::NOMINAL_HZ + fabsp_hwpc::NOMINAL_HZ / 2,
        delta: total.diff(&first),
        total,
        overhead: None,
    };
    out.push_str(&ascii::dashboard_since(&f1, Some(f0.at_cycles)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_pure_functions() {
        assert_eq!(cockpit_live(), cockpit_live());
        assert_eq!(cockpit_replay(), cockpit_replay());
        assert_eq!(dashboard_frames(), dashboard_frames());
        assert!(!cockpit_live().contains('\x1b'), "plain mode, no ANSI");
    }
}
