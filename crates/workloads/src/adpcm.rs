//! ADPCM (IMA/DVI) decode and encode kernels — the paper's motivational example (Fig. 3).
//!
//! The graphs below are the dataflow of the innermost loop bodies of the MediaBench
//! `rawdaudio`/`rawcaudio` programs after if-conversion: every `if` of the C source has
//! become a `SEL` node, the `indexTable`/`stepsizeTable` lookups are `load` nodes and the
//! output sample write is a `store` node, exactly as drawn in Fig. 3 of the paper
//! (subgraphs M1/M2/M3 live inside [`decode_kernel`]).

use ise_ir::{Dfg, DfgBuilder, Program};

/// Step-size table of the IMA ADPCM coder (89 entries). Exposed so that the integration
/// tests can execute the kernels against the real tables through the IR interpreter.
pub const STEP_SIZE_TABLE: [i32; 89] = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37, 41, 45, 50, 55, 60, 66,
    73, 80, 88, 97, 107, 118, 130, 143, 157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449,
    494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066, 2272,
    2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493,
    10442, 11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
];

/// Index-adjustment table of the IMA ADPCM coder (16 entries).
pub const INDEX_TABLE: [i32; 16] = [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8];

/// Base address used for the step-size table in the modelled data memory.
pub const STEP_TABLE_BASE: i64 = 0x1000;
/// Base address used for the index table in the modelled data memory.
pub const INDEX_TABLE_BASE: i64 = 0x2000;

/// Profile weight of the decoder inner loop (samples decoded per invocation of the
/// benchmark), mirroring the dominance of this block in the MediaBench profile.
pub const DECODE_EXEC_COUNT: u64 = 50_000;
/// Profile weight of the encoder inner loop.
pub const ENCODE_EXEC_COUNT: u64 = 50_000;

/// The if-converted dataflow graph of the ADPCM **decoder** inner loop.
///
/// Live-in values: `delta` (the 4-bit code), `index`, `valpred`, `step` and `outp`
/// (output pointer). Live-out values: the updated `index`, `valpred`, `step` and `outp`.
#[must_use]
pub fn decode_kernel() -> Dfg {
    let mut b = DfgBuilder::new("adpcmdecode.inner");
    b.exec_count(DECODE_EXEC_COUNT);
    let delta = b.input("delta");
    let index = b.input("index");
    let valpred = b.input("valpred");
    let step = b.input("step");
    let outp = b.input("outp");

    // index += indexTable[delta]; clamp to [0, 88]
    let index_addr = b.add(b.imm(INDEX_TABLE_BASE), delta);
    let index_adj = b.load(index_addr);
    let index_new = b.add(index, index_adj);
    let index_neg = b.lt(index_new, b.imm(0));
    let index_clamped_lo = b.select(index_neg, b.imm(0), index_new);
    let index_too_big = b.gt(index_clamped_lo, b.imm(88));
    let index_final = b.select(index_too_big, b.imm(88), index_clamped_lo);

    // sign = delta & 8; magnitude = delta & 7
    let sign = b.and(delta, b.imm(8));
    let magnitude = b.and(delta, b.imm(7));

    // vpdiff = step >> 3, conditionally accumulating step, step>>1, step>>2.
    // This is the approximate 16x4-bit multiplication called M1 in Fig. 3.
    let vpdiff0 = b.ashr(step, b.imm(3));
    let bit2 = b.and(magnitude, b.imm(4));
    let step_plus = b.add(vpdiff0, step);
    let vpdiff1 = b.select(bit2, step_plus, vpdiff0);
    let bit1 = b.and(magnitude, b.imm(2));
    let half_step = b.ashr(step, b.imm(1));
    let plus_half = b.add(vpdiff1, half_step);
    let vpdiff2 = b.select(bit1, plus_half, vpdiff1);
    let bit0 = b.and(magnitude, b.imm(1));
    let quarter_step = b.ashr(step, b.imm(2));
    let plus_quarter = b.add(vpdiff2, quarter_step);
    let vpdiff = b.select(bit0, plus_quarter, vpdiff2);

    // valpred +/- vpdiff, then saturate to 16 bits (the accumulation/saturation of M2).
    let minus = b.sub(valpred, vpdiff);
    let plus = b.add(valpred, vpdiff);
    let valpred_new = b.select(sign, minus, plus);
    let too_big = b.gt(valpred_new, b.imm(32767));
    let sat_hi = b.select(too_big, b.imm(32767), valpred_new);
    let too_small = b.lt(sat_hi, b.imm(-32768));
    let valpred_sat = b.select(too_small, b.imm(-32768), sat_hi);

    // step = stepsizeTable[index] (the disconnected subgraph M3 of Fig. 3).
    let step_addr = b.add(b.imm(STEP_TABLE_BASE), index_final);
    let step_new = b.load(step_addr);

    // *outp++ = valpred
    b.store(outp, valpred_sat);
    let outp_new = b.add(outp, b.imm(1));

    b.output("index", index_final);
    b.output("valpred", valpred_sat);
    b.output("step", step_new);
    b.output("outp", outp_new);
    b.finish()
}

/// The if-converted dataflow graph of the ADPCM **encoder** inner loop.
///
/// Live-in values: the input sample `val`, `valpred`, `index`, `step` and the packed
/// output state. Live-out: `delta`, updated `valpred`, `index`, `step`.
#[must_use]
pub fn encode_kernel() -> Dfg {
    let mut b = DfgBuilder::new("adpcmencode.inner");
    b.exec_count(ENCODE_EXEC_COUNT);
    let val = b.input("val");
    let valpred = b.input("valpred");
    let index = b.input("index");
    let step = b.input("step");

    // diff = val - valpred; sign = (diff < 0) ? 8 : 0; diff = |diff|
    let diff = b.sub(val, valpred);
    let neg = b.lt(diff, b.imm(0));
    let sign = b.select(neg, b.imm(8), b.imm(0));
    let negated = b.neg(diff);
    let absdiff = b.select(neg, negated, diff);

    // delta = 0; vpdiff = step >> 3; three quantisation steps (if-converted).
    let vpdiff0 = b.ashr(step, b.imm(3));
    // step 1: if (diff >= step) { delta |= 4; diff -= step; vpdiff += step; }
    let ge1 = b.ge(absdiff, step);
    let delta1 = b.select(ge1, b.imm(4), b.imm(0));
    let diff1_sub = b.sub(absdiff, step);
    let diff1 = b.select(ge1, diff1_sub, absdiff);
    let vpdiff1_add = b.add(vpdiff0, step);
    let vpdiff1 = b.select(ge1, vpdiff1_add, vpdiff0);
    // step 2: half step
    let half = b.ashr(step, b.imm(1));
    let ge2 = b.ge(diff1, half);
    let delta2_or = b.or(delta1, b.imm(2));
    let delta2 = b.select(ge2, delta2_or, delta1);
    let diff2_sub = b.sub(diff1, half);
    let diff2 = b.select(ge2, diff2_sub, diff1);
    let vpdiff2_add = b.add(vpdiff1, half);
    let vpdiff2 = b.select(ge2, vpdiff2_add, vpdiff1);
    // step 3: quarter step
    let quarter = b.ashr(step, b.imm(2));
    let ge3 = b.ge(diff2, quarter);
    let delta3_or = b.or(delta2, b.imm(1));
    let delta3 = b.select(ge3, delta3_or, delta2);
    let vpdiff3_add = b.add(vpdiff2, quarter);
    let vpdiff = b.select(ge3, vpdiff3_add, vpdiff2);

    // valpred +/- vpdiff with saturation.
    let minus = b.sub(valpred, vpdiff);
    let plus = b.add(valpred, vpdiff);
    let valpred_new = b.select(sign, minus, plus);
    let too_big = b.gt(valpred_new, b.imm(32767));
    let sat_hi = b.select(too_big, b.imm(32767), valpred_new);
    let too_small = b.lt(sat_hi, b.imm(-32768));
    let valpred_sat = b.select(too_small, b.imm(-32768), sat_hi);

    // delta |= sign; index += indexTable[delta]; clamp; step = stepsizeTable[index]
    let delta_final = b.or(delta3, sign);
    let index_addr = b.add(b.imm(INDEX_TABLE_BASE), delta_final);
    let index_adj = b.load(index_addr);
    let index_new = b.add(index, index_adj);
    let index_neg = b.lt(index_new, b.imm(0));
    let index_lo = b.select(index_neg, b.imm(0), index_new);
    let index_hi = b.gt(index_lo, b.imm(88));
    let index_final = b.select(index_hi, b.imm(88), index_lo);
    let step_addr = b.add(b.imm(STEP_TABLE_BASE), index_final);
    let step_new = b.load(step_addr);

    b.output("delta", delta_final);
    b.output("valpred", valpred_sat);
    b.output("index", index_final);
    b.output("step", step_new);
    b.finish()
}

/// A small secondary block of the decoder (buffer/nibble management), so that the
/// application has more than one profiled basic block.
#[must_use]
pub fn decode_outer_block() -> Dfg {
    let mut b = DfgBuilder::new("adpcmdecode.unpack");
    b.exec_count(DECODE_EXEC_COUNT / 2);
    let inbuf = b.input("inbuf");
    let bufferstep = b.input("bufferstep");
    let inp = b.input("inp");
    let loaded = b.load(inp);
    let low_nibble = b.and(loaded, b.imm(0xf));
    let high_nibble_shift = b.lshr(loaded, b.imm(4));
    let high_nibble = b.and(high_nibble_shift, b.imm(0xf));
    let delta = b.select(bufferstep, low_nibble, high_nibble);
    let inp_next = b.add(inp, b.imm(1));
    let inp_new = b.select(bufferstep, inp, inp_next);
    let toggled = b.xor(bufferstep, b.imm(1));
    let buffer_new = b.select(bufferstep, inbuf, loaded);
    b.output("delta", delta);
    b.output("inp", inp_new);
    b.output("bufferstep", toggled);
    b.output("inbuf", buffer_new);
    b.finish()
}

/// The `adpcmdecode` application: unpacking block plus the decoder inner loop.
#[must_use]
pub fn decode_program() -> Program {
    let mut p = Program::new("adpcmdecode");
    p.add_block(decode_outer_block());
    p.add_block(decode_kernel());
    p
}

/// The `adpcmencode` application.
#[must_use]
pub fn encode_program() -> Program {
    let mut p = Program::new("adpcmencode");
    p.add_block(encode_kernel());
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_ir::interp::Evaluator;
    use std::collections::BTreeMap;

    /// Reference C-like implementation of one decoder step, used to validate the graph.
    fn reference_decode(delta: i32, index: i32, valpred: i32, step: i32) -> (i32, i32, i32) {
        let mut index = index + INDEX_TABLE[(delta & 0xf) as usize];
        index = index.clamp(0, 88);
        let sign = delta & 8;
        let magnitude = delta & 7;
        let mut vpdiff = step >> 3;
        if magnitude & 4 != 0 {
            vpdiff += step;
        }
        if magnitude & 2 != 0 {
            vpdiff += step >> 1;
        }
        if magnitude & 1 != 0 {
            vpdiff += step >> 2;
        }
        let mut valpred = if sign != 0 {
            valpred - vpdiff
        } else {
            valpred + vpdiff
        };
        valpred = valpred.clamp(-32768, 32767);
        let step = STEP_SIZE_TABLE[index as usize];
        (index, valpred, step)
    }

    fn evaluator_with_tables() -> Evaluator {
        let mut evaluator = Evaluator::new();
        evaluator
            .memory
            .load_table(STEP_TABLE_BASE as i32, &STEP_SIZE_TABLE);
        evaluator
            .memory
            .load_table(INDEX_TABLE_BASE as i32, &INDEX_TABLE);
        evaluator
    }

    #[test]
    fn decode_kernel_matches_the_reference_implementation() {
        let g = decode_kernel();
        g.validate().expect("valid graph");
        let mut state = (0i32, 0i32, 7i32); // (index, valpred, step)
        for delta in [0, 1, 3, 7, 8, 12, 15, 5, 9, 2] {
            let mut evaluator = evaluator_with_tables();
            let inputs: BTreeMap<String, i32> = [
                ("delta".to_string(), delta),
                ("index".to_string(), state.0),
                ("valpred".to_string(), state.1),
                ("step".to_string(), state.2),
                ("outp".to_string(), 0x500),
            ]
            .into();
            let out = evaluator
                .eval_block(&g, &inputs)
                .expect("evaluation")
                .outputs;
            let expected = reference_decode(delta, state.0, state.1, state.2);
            assert_eq!(out["index"], expected.0, "delta={delta}");
            assert_eq!(out["valpred"], expected.1, "delta={delta}");
            assert_eq!(out["step"], expected.2, "delta={delta}");
            assert_eq!(evaluator.memory.read(0x500), expected.1);
            state = expected;
        }
    }

    #[test]
    fn decode_kernel_has_the_fig3_shape() {
        let g = decode_kernel();
        // Fig. 3 shows eight SEL nodes, two table loads and one store in the hot block.
        assert_eq!(g.count_opcode(ise_ir::Opcode::Select), 8);
        assert_eq!(g.count_opcode(ise_ir::Opcode::Load), 2);
        assert_eq!(g.count_opcode(ise_ir::Opcode::Store), 1);
        assert_eq!(g.output_count(), 4);
        assert!(
            g.node_count() >= 25,
            "the block is large after if-conversion"
        );
        assert!(
            g.node_ids().all(|id| g.node(id).opcode.has_side_effect()
                || !g.consumers(id).is_empty()
                || g.is_output_source(id)),
            "no dead nodes"
        );
    }

    #[test]
    fn encode_kernel_is_well_formed_and_executable() {
        let g = encode_kernel();
        g.validate().expect("valid graph");
        let mut evaluator = evaluator_with_tables();
        let inputs: BTreeMap<String, i32> = [
            ("val".to_string(), 1200),
            ("valpred".to_string(), 0),
            ("index".to_string(), 0),
            ("step".to_string(), 7),
        ]
        .into();
        let out = evaluator
            .eval_block(&g, &inputs)
            .expect("evaluation")
            .outputs;
        // The encoder must quantise a large positive difference to the maximum magnitude.
        assert_eq!(out["delta"] & 0x8, 0, "positive difference has no sign bit");
        assert!(out["delta"] & 0x7 > 0);
        assert!(out["valpred"] > 0);
        assert!(out["index"] > 0);
    }

    #[test]
    fn programs_are_valid_and_profiled() {
        let decode = decode_program();
        assert!(decode.validate().is_ok());
        assert_eq!(decode.block_count(), 2);
        let encode = encode_program();
        assert!(encode.validate().is_ok());
        assert_eq!(encode.name(), "adpcmencode");
    }
}
