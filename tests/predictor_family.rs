//! Design-space sanity across the parametric predictor family — the §III
//! claim that the Branch Predictor block is generated from user
//! parameters, so any member of the family can drive a simulation.

use resim::bpred::{DirectionConfig, TournamentConfig, TournamentPredictor, TwoLevelConfig};
use resim::core::Engine;
use resim::prelude::*;

fn cycles_with(direction: DirectionConfig) -> u64 {
    let tg = TraceGenConfig {
        predictor: PredictorConfig {
            direction,
            ..PredictorConfig::paper_two_level()
        },
        ..TraceGenConfig::paper()
    };
    let trace = generate_trace(Workload::spec(SpecBenchmark::Parser, 4), 40_000, &tg);
    let config = EngineConfig {
        predictor: tg.predictor,
        ..EngineConfig::paper_4wide()
    };
    Engine::new(config).unwrap().run(trace.source()).cycles
}

/// Better predictors never slow the simulated machine down: perfect ≤
/// two-level ≤ static-not-taken on a branchy workload.
#[test]
fn predictor_quality_orders_runtime() {
    let perfect = cycles_with(DirectionConfig::Perfect);
    let two_level = cycles_with(DirectionConfig::paper_two_level());
    let nottaken = cycles_with(DirectionConfig::NotTaken);
    assert!(
        perfect < two_level,
        "perfect {perfect} must beat two-level {two_level}"
    );
    assert!(
        two_level < nottaken,
        "two-level {two_level} must beat static not-taken {nottaken}"
    );
}

/// Every family member simulates without error and in a sane band.
#[test]
fn family_members_all_run() {
    let members = [
        DirectionConfig::Taken,
        DirectionConfig::NotTaken,
        DirectionConfig::Bimodal { size: 1024 },
        DirectionConfig::TwoLevel(TwoLevelConfig::gshare(10, 4096)),
        DirectionConfig::paper_two_level(),
    ];
    let baseline = cycles_with(DirectionConfig::Perfect);
    for m in members {
        let c = cycles_with(m);
        assert!(
            c >= baseline && c < baseline * 6,
            "{m:?}: {c} cycles vs perfect {baseline}"
        );
    }
}

/// The tournament predictor adapts per-branch: on a stream mixing a
/// bimodal-friendly and a history-friendly branch it beats both of its
/// components.
#[test]
fn tournament_beats_components_on_mixed_stream() {
    let mk_stream = || {
        // Branch A: 85% taken (bimodal wins); branch B: period-4 pattern
        // (two-level wins); interleaved.
        (0..4000u32).map(|i| {
            if i % 2 == 0 {
                (0x100u32, i % 20 != 0) // strongly biased
            } else {
                (0x200u32, (i / 2) % 4 < 2) // periodic
            }
        })
    };
    let accuracy = |mut predict: Box<dyn FnMut(u32, bool) -> bool>| {
        let mut right = 0usize;
        for (pc, taken) in mk_stream() {
            if predict(pc, taken) == taken {
                right += 1;
            }
        }
        right as f64 / 4000.0
    };

    let mut tour = TournamentPredictor::new(TournamentConfig::classic());
    let acc_tour = accuracy(Box::new(move |pc, taken| {
        let p = tour.predict(pc);
        tour.update(pc, taken);
        p
    }));

    use resim::bpred::DirectionPredictor;
    let mut bim = DirectionPredictor::new(DirectionConfig::Bimodal { size: 2048 });
    let acc_bim = accuracy(Box::new(move |pc, taken| {
        let p = bim.predict(pc, taken);
        bim.update(pc, taken);
        p
    }));

    assert!(acc_tour > 0.9, "tournament accuracy {acc_tour}");
    assert!(
        acc_tour >= acc_bim - 0.02,
        "tournament {acc_tour} must not lose to bimodal {acc_bim}"
    );
}
