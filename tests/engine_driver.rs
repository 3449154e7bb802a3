//! Acceptance tests for the unified engine: every bundled algorithm is reachable
//! through the registry by name, and the `rayon`-parallel program driver produces
//! byte-identical selections to the sequential path on the real workloads.

use ise::core::engine::{select_program, DriverOptions, IdentifierConfig};
use ise::core::Constraints;
use ise::hw::{DefaultCostModel, SoftwareLatencyModel};
use ise::workloads::{adpcm, gsm};

/// Registry names of all six bundled identification algorithms.
const ALL_SIX: [&str; 6] = [
    "single-cut",
    "multicut",
    "exhaustive",
    "clubbing",
    "maxmiso",
    "single-node",
];

#[test]
fn all_six_algorithms_are_reachable_by_name() {
    let registry = ise::baselines::full_registry();
    for name in ALL_SIX {
        let identifier = registry
            .create(name)
            .unwrap_or_else(|e| panic!("{name} must be registered: {e}"));
        assert_eq!(identifier.name(), name);
    }
}

#[test]
fn parallel_driver_is_byte_identical_to_sequential_on_adpcm_and_gsm() {
    let registry = ise::baselines::full_registry();
    let model = DefaultCostModel::new();
    // A modest budget keeps the exact algorithms fast on the big adpcm blocks; the
    // multicut slots stay at the default. The exhaustive oracle skips oversized blocks
    // identically on both paths.
    let config = IdentifierConfig::default().with_exploration_budget(Some(200_000));
    for program in [adpcm::decode_program(), gsm::program()] {
        for name in ALL_SIX {
            let identifier = registry
                .create_configured(name, &config)
                .expect("registered");
            let constraints = Constraints::new(4, 2);
            let parallel = select_program(
                &program,
                identifier.as_ref(),
                constraints,
                &model,
                DriverOptions::new(8),
            );
            let sequential = select_program(
                &program,
                identifier.as_ref(),
                constraints,
                &model,
                DriverOptions::new(8).sequential(),
            );
            assert_eq!(
                parallel,
                sequential,
                "{name} on {} diverged between parallel and sequential",
                program.name()
            );
        }
    }
}

#[test]
fn every_registered_algorithm_yields_a_valid_selection_on_gsm() {
    let registry = ise::baselines::full_registry();
    let model = DefaultCostModel::new();
    let software = SoftwareLatencyModel::new();
    let program = gsm::program();
    let constraints = Constraints::new(4, 2);
    for name in registry.names() {
        let identifier = registry.create(name).expect("registered");
        let selection = select_program(
            &program,
            identifier.as_ref(),
            constraints,
            &model,
            DriverOptions::new(8),
        );
        assert!(selection.len() <= 8, "{name}");
        let report = selection.speedup_report(&program, &software);
        assert!(report.speedup >= 1.0, "{name}");
        for chosen in &selection.chosen {
            let block = program.block(chosen.block_index);
            assert!(chosen.identified.evaluation.inputs <= 4, "{name}");
            assert!(chosen.identified.evaluation.outputs <= 2, "{name}");
            assert!(
                ise::core::cut::is_convex(block, &chosen.identified.cut),
                "{name}"
            );
            assert!(
                ise::core::cut::is_afu_legal(block, &chosen.identified.cut),
                "{name}"
            );
        }
    }
}
