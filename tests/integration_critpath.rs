//! End-to-end contracts of the flight log + critical-path profiler:
//! profiling is observation-only (results and gated metrics are
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
    // artifacts are byte-stable: the flight log pins every charge — rank,
    // epoch, seconds and span, zero-second charges included, each rank's in
    // its order — and the collective count; the report pins `analyze` —
    // composition, straggler choice and path legs — under the serial and
    // pipelined schedules. `want_flight` is the digest of the log with every
    // `span` removed, `want_spans` of the log as it is. (The spans'
    // host-measured fields are not serialized, or no digest of them could
    // be pinned.)
    //
    // `want_report` has not moved since the cluster became collectives-only,
    // nor `want_flight` since the log became the trainers' own charges,
    // laid out rank by rank. `want_spans` was re-recorded when a span lost
    // its per-peer `sent` / `recv` lists: on the commit before, the log
    // with both lists dropped and each halo span's `detail.bytes` set to
    // its `sent` total reproduced the new digests.
    for (method, collectives, want_report, want_flight, want_spans) in [
        (
            Method::Vanilla,
            37,
            0x29e4_733b_85d9_715c_u64,
            0x102b_c509_f0c9_7789_u64,
            0x8eba_b735_b7ec_e825_u64,
        ),
        // Same charges and exchanges as Vanilla, composed differently.
        (
            Method::PipeGcn,
            37,
            0xa29c_0f16_c0e3_3b2a,
            0x102b_c509_f0c9_7789,
            0x8eba_b735_b7ec_e825,
        ),
        // No backward exchange.
        (
            Method::Sancus,
            31,
            0xf51c_38d7_4a8f_0a2f,
            0xf5c1_e77e_16bb_0adb,
            0x638c_84b9_abdf_3ade,
        ),
    ] {
        let (_, profile) =
            adaqp::run_experiment_profiled(&pinned(method, true)).expect("valid config");
        let p = profile.expect("profiling on");
        let events = p.flight.events.iter().map(|event| {
            let mut event = serde_json::to_value(event);
            event.as_object_mut().map(|fields| fields.remove("span"));
            event
        });
        let mut bare = serde_json::to_value(&p.flight);
        let events = serde_json::Value::Array(events.collect());
        bare.as_object_mut()
            .map(|log| log.insert("events".to_string(), events));
        let got = (
            fnv(&serde_json::to_string(&p.report).expect("report encodes")),
            fnv(&serde_json::to_string(&bare).expect("log encodes")),
            fnv(&serde_json::to_string(&p.flight).expect("log encodes")),
        );
        assert_eq!(
            got,
            (want_report, want_flight, want_spans),
            "{method:?}: report / bare flight-log / flight-log digests {got:#018x?}"
        );
        // Per epoch: two forward rings, one backward ring (none under
        // SANCUS) and two evaluation rings, less the layer-0 evaluation ring
        // of every epoch after the first, plus the gradient allreduce's
        // gather and broadcast. Over six epochs that is (5 * 6 - 5) + 2 * 6
        // = 37 for Vanilla and PipeGCN and (4 * 6 - 5) + 2 * 6 = 31 for
        // SANCUS. On the commit before, each rank logged exactly that many
        // `CollectiveForm`s: 25 (19) rings, 6 gathers and 6 broadcasts.
        assert_eq!(p.flight.collectives, collectives, "{method:?}");
    }
}

#[test]
fn golden_telemetry_digests() {
    // The derived log, and the Chrome trace rendered from it: track clocks,
    // epoch re-alignment and dropped empty spans included, one span per
    // charge. Re-recorded when a halo charge stopped being split into
    // per-peer send/recv spans: on the commit before, its flight log with
    // the per-peer lists dropped and each halo span's `detail.bytes` set to
    // its `sent` total, placed on the tracks by the new
    // `TelemetryLog::from_flight`, reproduced all three rows. The
    // host-measured fields are cleared first; nothing else about these
    // three methods' spans varies from run to run.
    for (method, want_events, want_log, want_trace) in [
        (
            Method::Vanilla,
            456,
            0x6590_a190_e109_1249_u64,
            0x1c37_4ae0_6678_4a1f_u64,
        ),
        // Same charges as Vanilla; the schedule is not in the log.
        (
            Method::PipeGcn,
            456,
            0x6590_a190_e109_1249,
            0x1c37_4ae0_6678_4a1f,
        ),
        (
            Method::Sancus,
            404,
            0x33dc_6ad2_d7dc_8836,
            0x5af7_d906_8741_d466,
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

/// The recorded flight logs of the three methods the property below
/// reorders, recorded once for every case.
fn recorded_logs() -> &'static [obs::critpath::FlightLog] {
    static LOGS: std::sync::OnceLock<Vec<obs::critpath::FlightLog>> = std::sync::OnceLock::new();
    LOGS.get_or_init(|| {
        [Method::Vanilla, Method::AdaQp, Method::Sancus]
            .into_iter()
            .map(|method| {
                let (_, profile) =
                    adaqp::run_experiment_profiled(&pinned(method, true)).expect("valid config");
                profile.expect("profiling on").flight
            })
            .collect()
    })
}

/// `log`'s events interleaved across ranks in an order drawn from `seed`,
/// each rank's own events kept in their order.
fn interleaved(log: &obs::critpath::FlightLog, seed: u64) -> obs::critpath::FlightLog {
    let mut queues: Vec<std::collections::VecDeque<_>> =
        (0..log.num_devices).map(|_| Default::default()).collect();
    for ev in &log.events {
        queues[ev.rank].push_back(ev.clone());
    }
    let mut state = seed;
    let mut events = Vec::with_capacity(log.events.len());
    loop {
        let open: Vec<usize> = (0..queues.len())
            .filter(|&r| !queues[r].is_empty())
            .collect();
        if open.is_empty() {
            break;
        }
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let rank = open[(z % open.len() as u64) as usize];
        events.extend(queues[rank].pop_front());
    }
    let mut out = log.clone();
    out.events = events;
    out
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

    /// Every view of a run reads each rank's charges in that rank's order
    /// and nothing of how ranks interleave, so a log kept rank-major is as
    /// good as one kept in scheduler order: the critical-path report and
    /// the telemetry log of a reordered log are byte-identical.
    #[test]
    fn views_ignore_how_ranks_interleave(seed in 0u64..u64::MAX) {
        use obs::critpath::{analyze, Schedule};
        for log in recorded_logs() {
            let shuffled = interleaved(log, seed);
            proptest::prop_assert_eq!(shuffled.events.len(), log.events.len());
            for schedule in [Schedule::Serial, Schedule::Overlapped, Schedule::Pipelined] {
                let report = |l| serde_json::to_string(&analyze(l, schedule, 3)).expect("encodes");
                proptest::prop_assert_eq!(report(&shuffled), report(log));
            }
            let spans =
                |l| serde_json::to_string(&adaqp::TelemetryLog::from_flight(l)).expect("encodes");
            proptest::prop_assert_eq!(spans(&shuffled), spans(log));
        }
    }
}
