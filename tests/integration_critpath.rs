//! End-to-end contracts of the causal flight recorder + critical-path
//! profiler: profiling is observation-only (results and gated metrics are
//! byte-identical with it on or off), the profile is byte-deterministic at
//! any kernel thread count, and on the tiny AdaQP run the classified path
//! reconstructs the epoch time while wasting strictly less device time at
//! collective rendezvous than Vanilla.

use adaqp::{ExperimentConfig, Method, TrainingConfig};
use graph::DatasetSpec;

fn pinned(method: Method, profile: bool) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetSpec::tiny(),
        machines: 2,
        devices_per_machine: 2,
        method,
        training: TrainingConfig {
            epochs: 6,
            hidden: 16,
            num_layers: 2,
            dropout: 0.0,
            reassign_period: 2,
            profile,
            ..TrainingConfig::default()
        },
        seed: 7,
    }
}

#[test]
fn profiling_on_vs_off_is_byte_identical_in_results_and_metrics() {
    let mut off = pinned(Method::Vanilla, false);
    off.training.metrics = true;
    let mut on = off.clone();
    on.training.profile = true;
    let plain = adaqp::run_experiment(&off).expect("valid config");
    let (profiled, profile) = adaqp::run_experiment_profiled(&on).expect("valid config");
    assert!(profile.is_some(), "profile requested");

    // Results JSON, with the metrics snapshot compared separately below.
    let mut plain_r = plain.clone();
    let mut profiled_r = profiled.clone();
    plain_r.metrics = None;
    profiled_r.metrics = None;
    let a = serde_json::to_string(&plain_r).expect("encodes");
    let b = serde_json::to_string(&profiled_r).expect("encodes");
    assert_eq!(a, b, "profiling changed the results JSON");

    // Metrics snapshot: dropping the `_`-prefixed (regress-exempt) series
    // must recover the unprofiled snapshot byte-for-byte.
    let plain_snap = plain.metrics.expect("metrics on");
    let mut profiled_snap = profiled.metrics.expect("metrics on");
    assert!(
        profiled_snap.metrics.keys().any(|k| k.starts_with('_')),
        "profiled snapshot carries the exempt gauges"
    );
    profiled_snap.metrics.retain(|k, _| !k.starts_with('_'));
    let a = serde_json::to_string(&plain_snap).expect("encodes");
    let b = serde_json::to_string(&profiled_snap).expect("encodes");
    assert_eq!(a, b, "profiling leaked into gated metric series");
}

#[test]
fn report_and_flight_log_are_byte_identical_across_thread_counts() {
    let mut encoded = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut cfg = pinned(Method::Vanilla, true);
        cfg.training.threads = threads;
        let (_, profile) = adaqp::run_experiment_profiled(&cfg).expect("valid config");
        let p = profile.expect("profiling on");
        encoded.push((
            serde_json::to_string(&p.report).expect("report encodes"),
            serde_json::to_string(&p.flight).expect("log encodes"),
        ));
    }
    assert_eq!(encoded[0], encoded[1], "profile differs at 1 vs 2 threads");
    assert_eq!(encoded[0], encoded[2], "profile differs at 1 vs 8 threads");
}

#[test]
fn adaqp_path_tiles_the_epoch_time_and_waits_less_than_vanilla() {
    let (r, profile) =
        adaqp::run_experiment_profiled(&pinned(Method::AdaQp, true)).expect("valid config");
    let report = profile.expect("profiling on").report;
    assert_eq!(report.schedule, "overlapped");
    assert_eq!(report.epochs, 6);

    // The classified segment totals reconstruct the epoch-time total.
    let class_sum: f64 = report.class_totals.values().sum();
    let tol = 1e-12 * report.total_seconds.max(1.0);
    assert!(
        (class_sum - report.total_seconds).abs() <= tol,
        "classes sum to {class_sum}, path is {}",
        report.total_seconds
    );
    assert!(
        (report.total_seconds - r.total_sim_seconds).abs() <= tol,
        "path {} vs simulated {}",
        report.total_seconds,
        r.total_sim_seconds
    );

    // Segments tile the path: each closes exactly where it opened plus its
    // length, and within an epoch each opens exactly where the last closed.
    for w in report.segments.windows(2) {
        let (s, next) = (&w[0], &w[1]);
        assert_eq!((s.start + s.seconds).to_bits(), s.end.to_bits());
        assert!(s.seconds > 0.0, "zero-length segment on the path");
        if s.epoch == next.epoch {
            assert_eq!(s.end.to_bits(), next.start.to_bits(), "gap inside epoch");
        }
    }

    // AdaQP quantizes the imbalanced halo traffic away, so its ranks spend
    // a strictly smaller share of device time parked at the epoch
    // rendezvous than Vanilla's.
    let (_, vanilla) =
        adaqp::run_experiment_profiled(&pinned(Method::Vanilla, true)).expect("valid config");
    let vanilla = vanilla.expect("profiling on").report;
    assert!(
        report.collective_wait_share < vanilla.collective_wait_share,
        "AdaQP wait share {} !< Vanilla {}",
        report.collective_wait_share,
        vanilla.collective_wait_share
    );
}

/// FNV-1a over `text`'s bytes.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn golden_report_and_flight_log_digests() {
    // None of the three methods charges a host-measured solve, so both
    // artifacts are byte-stable: the flight log pins the phase names on the
    // wire and the order and count of `Command::Advance` yields
    // (zero-second ones included), the report pins `analyze` — composition,
    // straggler choice and path legs — under the serial and pipelined
    // schedules.
    //
    // Re-recorded once, when evaluation began to keep its first layer's
    // aggregated input (ISSUE 20). Against the digests of the commit
    // before (recorded when `Phase` / `PhaseSums` became `TimeCategory` /
    // `TimeBreakdown`, ISSUE 17) the only difference, checked event by event
    // on the two logs: the layer-0 evaluation ring of epochs >= 1 is gone —
    // per device one `CollectiveForm`, one `CollectiveRelease` and the
    // `Resume` after it, five times — and with it five of each device's
    // `collective_waits` in the report. Kind strings, every
    // `PhaseAdvance` and every other event of every rank are as before;
    // the ring count below holds the log to that.
    //
    // When a `PhaseAdvance` began to carry its whole charge (`span`, ISSUE
    // 22) the log gained that one field and nothing else: `want_flight` is
    // still the constant recorded before, now checked against the log with
    // `span` removed from every event, and `want_spans` is the digest of
    // the log as it is. (The spans' host-measured fields are not
    // serialized, or no digest of them could be pinned.)
    //
    // Re-recorded when the cluster became collectives-only: every
    // `FlightEvent` lost its five message fields (`peer`, `tag`, `bytes`,
    // `wire_seconds`, `latency_seconds`, always `null`/`0.0` in these
    // runs) and every device profile its `recv_waits` (always 0). With
    // exactly those keys put back into the new JSON, all nine digests of
    // the commit before were reproduced.
    for (method, rings_per_epoch, want_report, want_flight, want_spans) in [
        (
            Method::Vanilla,
            5,
            0x29e4_733b_85d9_715c_u64,
            0xcafc_7043_de89_8512_u64,
            0xfd20_fb82_e735_15bc_u64,
        ),
        // Same charges and exchanges as Vanilla, composed differently.
        (
            Method::PipeGcn,
            5,
            0xa29c_0f16_c0e3_3b2a,
            0xcafc_7043_de89_8512,
            0xfd20_fb82_e735_15bc,
        ),
        // No backward exchange.
        (
            Method::Sancus,
            4,
            0xf51c_38d7_4a8f_0a2f,
            0xfb4c_b386_c695_f28d,
            0xc4b3_7255_4775_c235,
        ),
    ] {
        let (_, profile) =
            adaqp::run_experiment_profiled(&pinned(method, true)).expect("valid config");
        let p = profile.expect("profiling on");
        let mut bare = p.flight.clone();
        for event in &mut bare.events {
            event.span = None;
        }
        let bare = serde_json::to_string(&bare).expect("log encodes");
        let got = (
            fnv(&serde_json::to_string(&p.report).expect("report encodes")),
            fnv(&bare.replace("\"span\":null,", "")),
            fnv(&serde_json::to_string(&p.flight).expect("log encodes")),
        );
        assert_eq!(
            got,
            (want_report, want_flight, want_spans),
            "{method:?}: report / bare flight-log / flight-log digests {got:#018x?}"
        );
        // Two forward layers, one backward exchange (none under SANCUS) and
        // two evaluation layers an epoch, less the layer-0 evaluation ring
        // of every epoch after the first.
        let ring_forms = p
            .flight
            .events
            .iter()
            .filter(|e| e.op == obs::critpath::FlightOp::CollectiveForm)
            .filter(|e| e.collective.as_deref() == Some("ring_all2all"))
            .count();
        assert_eq!(ring_forms, 4 * (rings_per_epoch * 6 - 5), "{method:?}");
    }
}

#[test]
fn golden_telemetry_digests() {
    // Recorded at the commit before the telemetry log became a fold over
    // the flight log (ISSUE 22), when each device still kept its own span
    // recorder: the derived log, and the Chrome trace rendered from it, are
    // what that recorder wrote, byte for byte — track clocks, epoch
    // re-alignment, dropped empty spans and the per-peer split of a halo
    // charge included. The host-measured fields are cleared first; nothing
    // else about these three methods' spans varies from run to run.
    for (method, want_events, want_log, want_trace) in [
        (
            Method::Vanilla,
            816,
            0x0a26_6186_46fd_4f13_u64,
            0x6c15_5fc7_6434_9e95_u64,
        ),
        // Same charges as Vanilla; the schedule is not in the log.
        (
            Method::PipeGcn,
            816,
            0x0a26_6186_46fd_4f13,
            0x6c15_5fc7_6434_9e95,
        ),
        (
            Method::Sancus,
            474,
            0x6ef4_1969_44a3_8f83,
            0xd682_3505_fc6d_298f,
        ),
    ] {
        let mut cfg = pinned(method, false);
        cfg.training.telemetry = true;
        let mut r = adaqp::run_experiment(&cfg).expect("valid config");
        let log = r.telemetry.as_mut().expect("telemetry on");
        for e in log.devices.iter_mut().flat_map(|d| &mut d.events) {
            e.host_seconds = Default::default();
            e.threads = None;
        }
        let trace = serde_json::to_string(&log.chrome_trace()).expect("trace encodes");
        let got = (
            log.num_events(),
            fnv(&serde_json::to_string(&r.telemetry).expect("log encodes")),
            fnv(&trace),
        );
        assert_eq!(
            got,
            (want_events, want_log, want_trace),
            "{method:?}: event count / telemetry-log / Chrome-trace digests {got:#018x?}"
        );
    }
}
