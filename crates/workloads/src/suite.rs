//! The bundled benchmark suite and its registry.

use ise_ir::interp::Evaluator;
use ise_ir::Program;

use crate::{adpcm, crypto, dsp, g721, gsm};

/// The three applications used for the paper's Fig. 11 comparison (adpcmdecode plus two
/// further MediaBench-style codecs).
#[must_use]
pub fn fig11_benchmarks() -> Vec<Program> {
    vec![adpcm::decode_program(), gsm::program(), g721::program()]
}

/// The full bundled suite: every MediaBench-like application shipped with this crate.
#[must_use]
pub fn mediabench_like() -> Vec<Program> {
    vec![
        adpcm::decode_program(),
        adpcm::encode_program(),
        gsm::program(),
        g721::program(),
        dsp::epic_program(),
        dsp::jpeg_program(),
        dsp::viterbi_program(),
        crypto::des_program(),
        crypto::crc_program(),
        crypto::sha_program(),
    ]
}

/// The bundled synthetic workloads: deterministic stress shapes that complement the
/// kernel-derived programs. Currently the `"widedag"` program — few, large, wide basic
/// blocks, the shape on which block-level parallelism cannot help and intra-block
/// subtree parallelism is the only scaling axis.
///
/// Kept out of [`mediabench_like`] so the paper-figure experiments keep sweeping
/// exactly the kernel-derived suite.
#[must_use]
pub fn synthetic() -> Vec<Program> {
    vec![crate::random::wide_dag_default()]
}

/// Looks up a bundled application by name (e.g. `"adpcmdecode"`, `"gsm"`, `"widedag"`).
#[must_use]
pub fn by_name(name: &str) -> Option<Program> {
    mediabench_like()
        .into_iter()
        .chain(synthetic())
        .find(|p| p.name() == name)
}

/// Names of all bundled applications (kernel-derived plus synthetic).
#[must_use]
pub fn names() -> Vec<String> {
    mediabench_like()
        .iter()
        .chain(synthetic().iter())
        .map(|p| p.name().to_string())
        .collect()
}

/// Creates an [`Evaluator`] whose data memory is pre-loaded with the lookup tables used
/// by the bundled kernels (ADPCM step/index tables, the DES S-box model).
#[must_use]
pub fn evaluator_with_tables() -> Evaluator {
    let mut evaluator = Evaluator::new();
    evaluator
        .memory
        .load_table(adpcm::STEP_TABLE_BASE as i32, &adpcm::STEP_SIZE_TABLE);
    evaluator
        .memory
        .load_table(adpcm::INDEX_TABLE_BASE as i32, &adpcm::INDEX_TABLE);
    let sbox: Vec<i32> = (0..128).map(|i| (i * 13 + 5) % 16).collect();
    evaluator
        .memory
        .load_table(crypto::SBOX_TABLE_BASE as i32, &sbox);
    evaluator
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_bundled_programs_are_valid() {
        let programs = mediabench_like();
        assert_eq!(programs.len(), 10);
        for program in &programs {
            program
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", program.name()));
            assert!(program.block_count() >= 1);
            assert!(program
                .blocks()
                .iter()
                .any(|block| block.exec_count() > 0 && block.node_count() > 0));
        }
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let names = names();
        for name in &names {
            assert!(by_name(name).is_some(), "{name} must resolve");
        }
        let mut deduped = names.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
        assert!(by_name("does-not-exist").is_none());
    }

    #[test]
    fn widedag_is_bundled_valid_and_wide() {
        let program = by_name("widedag").expect("synthetic workload resolves");
        program.validate().expect("widedag is structurally valid");
        assert!(names().contains(&"widedag".to_string()));
        // Few, large blocks: the shape block-level fan-out cannot parallelise.
        assert!(program.block_count() <= 4);
        for block in program.blocks() {
            assert!(block.node_count() >= 32, "widedag blocks are large");
        }
        // The synthetic program does not leak into the paper-figure suite.
        assert!(mediabench_like().iter().all(|p| p.name() != "widedag"));
        // Deterministic: two instantiations are identical.
        assert_eq!(
            crate::random::wide_dag_default(),
            crate::random::wide_dag_default()
        );
    }

    #[test]
    fn fig11_benchmarks_are_the_published_trio() {
        let trio = fig11_benchmarks();
        let names: Vec<&str> = trio.iter().map(Program::name).collect();
        assert_eq!(names, vec!["adpcmdecode", "gsm", "g721"]);
    }

    #[test]
    fn evaluator_tables_are_loaded() {
        let evaluator = evaluator_with_tables();
        assert_eq!(
            evaluator.memory.read(crate::adpcm::STEP_TABLE_BASE as i32),
            7
        );
        assert_eq!(
            evaluator
                .memory
                .read(crate::adpcm::STEP_TABLE_BASE as i32 + 88),
            32767
        );
    }
}
