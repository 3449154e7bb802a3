//! Random dataflow-graph generation.
//!
//! Fig. 8 of the paper plots the number of cuts considered by the identification
//! algorithm against the basic-block size for blocks between 2 and roughly 100 nodes.
//! The bundled kernels provide realistic blocks up to ~35 nodes; this generator produces
//! synthetic blocks with a configurable size, operation mix and fan-out so that the
//! scaling experiment can sweep the full range, and so that the property-based tests can
//! exercise the algorithms on thousands of structurally diverse graphs.

use ise_ir::{Dfg, DfgBuilder, Opcode, Operand, Program};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of the random generator.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomDfgConfig {
    /// Number of operation nodes to generate.
    pub nodes: usize,
    /// Number of block input variables.
    pub inputs: usize,
    /// Number of block output variables (chosen among the generated nodes).
    pub outputs: usize,
    /// Probability that a generated node is a memory operation (illegal in AFUs).
    pub memory_fraction: f64,
    /// Probability that a generated node is a multiply (expensive in both models).
    pub multiply_fraction: f64,
    /// How strongly operands prefer recently created nodes (1 = uniform over all
    /// previous values; larger values create deeper, narrower graphs).
    pub locality: usize,
}

impl Default for RandomDfgConfig {
    fn default() -> Self {
        RandomDfgConfig {
            nodes: 30,
            inputs: 4,
            outputs: 2,
            memory_fraction: 0.08,
            multiply_fraction: 0.15,
            locality: 8,
        }
    }
}

impl RandomDfgConfig {
    /// Convenience constructor for a graph with `nodes` operations and default mix.
    #[must_use]
    pub fn with_nodes(nodes: usize) -> Self {
        RandomDfgConfig {
            nodes,
            ..Self::default()
        }
    }
}

/// Generates a random, valid, acyclic dataflow graph.
///
/// The same `seed` always produces the same graph, making experiments reproducible.
#[must_use]
pub fn random_dfg(config: &RandomDfgConfig, seed: u64) -> Dfg {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = DfgBuilder::new(format!("random_{}_{seed}", config.nodes));
    let inputs: Vec<Operand> = (0..config.inputs.max(1))
        .map(|i| b.input(format!("x{i}")))
        .collect();
    let mut values: Vec<Operand> = inputs.clone();

    let binary_ops = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Shl,
        Opcode::Lshr,
        Opcode::Ashr,
        Opcode::Min,
        Opcode::Max,
        Opcode::Lt,
        Opcode::Eq,
    ];
    let unary_ops = [
        Opcode::Not,
        Opcode::Neg,
        Opcode::Abs,
        Opcode::SextH,
        Opcode::ZextB,
    ];

    let mut node_values: Vec<Operand> = Vec::new();
    for _ in 0..config.nodes {
        let pick = |rng: &mut SmallRng, values: &[Operand], locality: usize| -> Operand {
            let window = values.len().min(locality.max(1));
            let start = values.len() - window;
            values[rng.gen_range(start..values.len())]
        };
        let roll: f64 = rng.gen();
        // `None` marks a node that produces no value (a store) and therefore must not be
        // offered as an operand to later nodes.
        let value = if roll < config.memory_fraction {
            let addr = pick(&mut rng, &values, config.locality);
            if rng.gen_bool(0.7) {
                Some(b.load(addr))
            } else {
                let data = pick(&mut rng, &values, config.locality);
                let _ = b.store(addr, data);
                None
            }
        } else if roll < config.memory_fraction + config.multiply_fraction {
            let lhs = pick(&mut rng, &values, config.locality);
            let rhs = pick(&mut rng, &values, config.locality);
            Some(b.mul(lhs, rhs))
        } else if rng.gen_bool(0.15) {
            let cond = pick(&mut rng, &values, config.locality);
            let lhs = pick(&mut rng, &values, config.locality);
            let rhs = pick(&mut rng, &values, config.locality);
            Some(b.select(cond, lhs, rhs))
        } else if rng.gen_bool(0.2) {
            let operand = pick(&mut rng, &values, config.locality);
            let op = unary_ops[rng.gen_range(0..unary_ops.len())];
            Some(b.op(op, &[operand]))
        } else {
            let lhs = pick(&mut rng, &values, config.locality);
            let rhs = if rng.gen_bool(0.25) {
                Operand::Imm(rng.gen_range(-128..128))
            } else {
                pick(&mut rng, &values, config.locality)
            };
            let op = binary_ops[rng.gen_range(0..binary_ops.len())];
            Some(b.op(op, &[lhs, rhs]))
        };
        if let Some(value) = value {
            values.push(value);
            node_values.push(value);
        }
    }

    // Choose output values among the most recently produced ones.
    let usable: Vec<Operand> = node_values
        .iter()
        .copied()
        .filter(|v| v.as_node().is_some())
        .collect();
    let output_count = config.outputs.max(1).min(usable.len().max(1));
    for i in 0..output_count {
        if usable.is_empty() {
            break;
        }
        let index = usable.len() - 1 - (i * 3) % usable.len();
        b.output(format!("out{i}"), usable[index]);
    }
    b.finish()
}

/// Generates the block-size sweep used by the Fig. 8 experiment: one graph per requested
/// size, with the default operation mix.
#[must_use]
pub fn size_sweep(sizes: &[usize], seed: u64) -> Vec<Dfg> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &nodes)| random_dfg(&RandomDfgConfig::with_nodes(nodes), seed + i as u64))
        .collect()
}

/// Configuration of a *wide* synthetic block: operands are drawn uniformly from **all**
/// previously produced values (unbounded locality), many block inputs and outputs, and
/// almost no memory operations. The result is a shallow, bushy DAG in which large
/// convex cuts abound — the worst case for the search-tree size at a given node count,
/// and therefore the scenario where intra-block subtree parallelism matters.
#[must_use]
pub fn wide_config(nodes: usize) -> RandomDfgConfig {
    RandomDfgConfig {
        nodes,
        inputs: 8,
        outputs: 4,
        memory_fraction: 0.02,
        multiply_fraction: 0.2,
        locality: usize::MAX,
    }
}

/// Generates one wide, shallow random block of `nodes` operations (see
/// [`wide_config`]).
#[must_use]
pub fn wide_dfg(nodes: usize, seed: u64) -> Dfg {
    random_dfg(&wide_config(nodes), seed)
}

/// The `"widedag"` synthetic workload: a program with *few, large* basic blocks.
///
/// The bundled MediaBench-like kernels have many smallish blocks, so the driver's
/// per-block fan-out alone keeps every core busy on them. This workload is the opposite
/// shape — the Fig. 8 scaling axis — where block-level parallelism is useless and only
/// intra-block subtree parallelism (the kernel's split walks, `with_subtree_parallelism`
/// in `ise-core`) can use more than one core per block.
#[must_use]
pub fn wide_dag_program(blocks: usize, nodes_per_block: usize, seed: u64) -> Program {
    let mut program = Program::new("widedag");
    for block_index in 0..blocks.max(1) {
        let mut dfg = wide_dfg(nodes_per_block, seed + 7919 * block_index as u64);
        // Hot blocks: high execution counts make the selection non-trivial.
        dfg.set_exec_count(10_000 / (1 + block_index as u64));
        program.add_block(dfg);
    }
    program
}

/// The default `"widedag"` instance bundled in the suite registry: two 48-node wide
/// blocks, deterministic seed.
#[must_use]
pub fn wide_dag_default() -> Program {
    wide_dag_program(2, 48, 0x81DA6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_graphs_are_valid_and_deterministic() {
        let config = RandomDfgConfig::default();
        for seed in 0..20 {
            let g = random_dfg(&config, seed);
            g.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(g.node_count() > 0);
            assert!(g.output_count() >= 1);
            let again = random_dfg(&config, seed);
            assert_eq!(g, again, "same seed must give the same graph");
        }
    }

    #[test]
    fn node_count_tracks_the_request() {
        for nodes in [2, 10, 40, 80] {
            let g = random_dfg(&RandomDfgConfig::with_nodes(nodes), 7);
            // Stores are also nodes, so the count matches exactly.
            assert_eq!(g.node_count(), nodes);
        }
    }

    #[test]
    fn memory_fraction_zero_gives_pure_dataflow() {
        let config = RandomDfgConfig {
            memory_fraction: 0.0,
            ..RandomDfgConfig::default()
        };
        for seed in 0..10 {
            let g = random_dfg(&config, seed);
            assert!(g.iter_nodes().all(|(_, node)| !node.opcode.is_memory()));
        }
    }

    #[test]
    fn size_sweep_produces_one_graph_per_size() {
        let sizes = [2, 5, 20, 60];
        let graphs = size_sweep(&sizes, 3);
        assert_eq!(graphs.len(), sizes.len());
        for (g, &n) in graphs.iter().zip(&sizes) {
            assert_eq!(g.node_count(), n);
        }
    }
}
