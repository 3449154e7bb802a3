//! Structural (isomorphism-invariant) keys for basic-block dataflow graphs.
//!
//! Corpus-scale identification sees the same handful of kernel shapes over and over:
//! unrolled loop bodies, template-instantiated filters, copy-pasted blocks that differ
//! only in node numbering. The search kernel walks nodes in the *canonical*
//! consumers-first order ([`ise_ir::canon`]), so two blocks whose **canonical
//! serializations are byte-equal** walk literally the same branch-and-bound tree: the
//! same decisions in the same sequence, the same pruning outcomes, the same
//! incrementally accumulated floats. One enumeration can therefore answer both —
//! exactly, including the effort counters — after translating node identities through
//! the two canonical numberings.
//!
//! [`StructuralForm`] packages that contract:
//!
//! * [`StructuralForm::key`] — a [`StructuralKey`]: the canonical serialization bytes
//!   plus a 64-bit hash for cheap map lookup. Equality is **byte** equality; the hash
//!   is only a bucket hint, so a hash collision between structurally different blocks
//!   degrades to two map entries instead of ever mixing their pools.
//! * the node permutation between original [`NodeId`]s and canonical positions, used
//!   to translate cuts and exclusion sets in either direction
//!   ([`to_canonical`](StructuralForm::to_canonical) /
//!   [`cut_from_canonical`](StructuralForm::cut_from_canonical)).
//!
//! What the serialization covers is exactly what the kernel reads: opcode, immediate
//! values, the AFU-forbidden and output-source flags, operand structure (producers by
//! canonical position, block inputs by canonical port), in canonical walk order. Node
//! *names*, block names and execution counts are deliberately absent — they never
//! enter the search. Cost-model outputs are not serialized either: a memo keyed by a
//! [`StructuralKey`] is valid for one fixed cost model, which is how the corpus engine
//! uses it (one model per corpus run).

use ise_ir::canon::{self, Certificates};
use ise_ir::{Dfg, NodeId, Operand};

use crate::cut::CutSet;

/// An isomorphism-invariant key of one basic block's search-relevant structure.
///
/// Two keys compare equal iff their canonical serializations are byte-equal, which
/// certifies that the two blocks walk identical search trees (see the module docs).
/// The precomputed hash only accelerates map lookup; it never decides equality.
#[derive(Debug, Clone, Eq)]
pub struct StructuralKey {
    hash: u64,
    bytes: Vec<u8>,
}

impl StructuralKey {
    /// The 64-bit lookup hash of the canonical serialization.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The canonical serialization itself.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Returns `true` when `other` has the same hash but different bytes — a hash
    /// collision between structurally different blocks. Purely diagnostic: equality
    /// is byte-based, so a collision costs a map bucket scan, never correctness.
    #[must_use]
    pub fn collides_with(&self, other: &StructuralKey) -> bool {
        self.hash == other.hash && self.bytes != other.bytes
    }

    /// Reconstitutes a key from its canonical serialization bytes, recomputing the
    /// lookup hash. A key built from the bytes of an existing key compares equal to
    /// it; the warm-cache snapshot loader relies on exactly that.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> StructuralKey {
        StructuralKey {
            hash: hash_bytes(&bytes),
            bytes,
        }
    }
}

impl PartialEq for StructuralKey {
    fn eq(&self, other: &Self) -> bool {
        // Hash first: a cheap reject for the overwhelmingly common unequal case.
        self.hash == other.hash && self.bytes == other.bytes
    }
}

impl std::hash::Hash for StructuralKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The canonical form of one basic block: its [`StructuralKey`] plus the node
/// permutation between original identities and canonical positions.
#[derive(Debug, Clone)]
pub struct StructuralForm {
    key: StructuralKey,
    /// Original node index → canonical position.
    node_to_canon: Vec<u32>,
    /// Canonical position → original node id.
    canon_to_node: Vec<NodeId>,
}

impl StructuralForm {
    /// Computes the canonical form of `dfg`.
    #[must_use]
    pub fn of(dfg: &Dfg) -> StructuralForm {
        let certs = canon::certificates(dfg);
        StructuralForm::with_certificates(dfg, &certs)
    }

    /// [`StructuralForm::of`] with precomputed certificates.
    #[must_use]
    pub fn with_certificates(dfg: &Dfg, certs: &Certificates) -> StructuralForm {
        let canon_to_node = canon::canonical_consumers_first_with(dfg, certs);
        let mut node_to_canon = vec![0u32; dfg.node_count()];
        for (position, id) in canon_to_node.iter().enumerate() {
            node_to_canon[id.index()] = position as u32;
        }
        let port_order = canon::canonical_port_order(certs);
        let mut port_to_canon = vec![0u32; dfg.input_count()];
        for (position, &port) in port_order.iter().enumerate() {
            port_to_canon[port] = position as u32;
        }
        let bytes = serialize(dfg, &canon_to_node, &node_to_canon, &port_to_canon);
        StructuralForm {
            key: StructuralKey {
                hash: hash_bytes(&bytes),
                bytes,
            },
            node_to_canon,
            canon_to_node,
        }
    }

    /// The block's structural key.
    #[must_use]
    pub fn key(&self) -> &StructuralKey {
        &self.key
    }

    /// Translates a set of this block's nodes into sorted canonical positions.
    ///
    /// Cuts and exclusion sets in canonical coordinates are the common currency of the
    /// corpus pool: byte-equal keys guarantee that corresponding positions denote
    /// structurally corresponding nodes.
    #[must_use]
    pub fn to_canonical(&self, cut: &CutSet) -> Vec<u32> {
        let mut positions: Vec<u32> = cut
            .iter()
            .map(|id| self.node_to_canon[id.index()])
            .collect();
        positions.sort_unstable();
        positions
    }

    /// Translates canonical positions back into a [`CutSet`] over this block's nodes.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range for this block — which cannot happen for
    /// positions produced by [`to_canonical`](Self::to_canonical) on a block with an
    /// equal [`StructuralKey`] (equal keys imply equal node counts).
    #[must_use]
    pub fn cut_from_canonical(&self, dfg: &Dfg, positions: &[u32]) -> CutSet {
        CutSet::from_nodes(
            dfg,
            positions.iter().map(|&p| self.canon_to_node[p as usize]),
        )
    }

    /// Number of operation nodes of the block the form was computed for.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.canon_to_node.len()
    }
}

/// Serializes the search-relevant structure of `dfg` in canonical walk order
/// (`canon_to_node`), numbering nodes and input ports by their canonical positions.
fn serialize(
    dfg: &Dfg,
    canon_to_node: &[NodeId],
    node_to_canon: &[u32],
    port_to_canon: &[u32],
) -> Vec<u8> {
    let n = dfg.node_count();
    let mut bytes = Vec::with_capacity(16 + n * 16);
    push_u32(&mut bytes, n as u32);
    push_u32(&mut bytes, dfg.input_count() as u32);
    for &id in canon_to_node {
        let node = dfg.node(id);
        let opcode = format!("{:?}", node.opcode);
        push_u32(&mut bytes, opcode.len() as u32);
        bytes.extend_from_slice(opcode.as_bytes());
        bytes
            .push(u8::from(node.is_forbidden_in_afu()) | (u8::from(dfg.is_output_source(id)) << 1));
        push_u32(&mut bytes, node.operands.len() as u32);
        for operand in &node.operands {
            match *operand {
                Operand::Node(m) => {
                    bytes.push(0);
                    push_u32(&mut bytes, node_to_canon[m.index()]);
                }
                Operand::Input(port) => {
                    bytes.push(1);
                    push_u32(&mut bytes, port_to_canon[port.index()]);
                }
                Operand::Imm(v) => {
                    bytes.push(2);
                    bytes.extend_from_slice(&(v as u64).to_le_bytes());
                }
            }
        }
    }
    bytes
}

fn push_u32(bytes: &mut Vec<u8>, v: u32) {
    bytes.extend_from_slice(&v.to_le_bytes());
}

/// FNV-1a over the serialization — stable across platforms and toolchains (the std
/// hasher promises neither), which matters because hashes appear in committed
/// benchmark artefacts.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_ir::{DfgBuilder, Opcode};

    fn chain(swap: bool) -> Dfg {
        // Two independent subtrees XORed together; `swap` permutes insertion order
        // without changing the structure.
        let mut b = DfgBuilder::new(if swap { "chain_swapped" } else { "chain" });
        let x = b.input("x");
        let y = b.input("y");
        let three = b.imm(3);
        let (lhs, rhs) = if swap {
            let r = b.op(Opcode::Shl, &[y, three]);
            let l = b.op(Opcode::Mul, &[x, x]);
            (l, r)
        } else {
            let l = b.op(Opcode::Mul, &[x, x]);
            let r = b.op(Opcode::Shl, &[y, three]);
            (l, r)
        };
        let out = b.op(Opcode::Xor, &[lhs, rhs]);
        b.output("out", out);
        b.finish()
    }

    #[test]
    fn isomorphic_blocks_share_a_key() {
        let a = StructuralForm::of(&chain(false));
        let b = StructuralForm::of(&chain(true));
        assert_eq!(a.key(), b.key());
        assert_eq!(a.key().hash(), b.key().hash());
        assert!(!a.key().collides_with(b.key()));
    }

    #[test]
    fn distinct_structures_get_distinct_keys() {
        let mut b = DfgBuilder::new("other");
        let x = b.input("x");
        let y = b.input("y");
        let s = b.add(x, y);
        b.output("out", s);
        let other = StructuralForm::of(&b.finish());
        let base = StructuralForm::of(&chain(false));
        assert_ne!(base.key(), other.key());
    }

    #[test]
    fn immediates_and_flags_enter_the_key() {
        let build = |imm: i64| {
            let mut b = DfgBuilder::new("imm");
            let x = b.input("x");
            let k = b.imm(imm);
            let v = b.op(Opcode::Add, &[x, k]);
            b.output("o", v);
            b.finish()
        };
        assert_ne!(
            StructuralForm::of(&build(7)).key(),
            StructuralForm::of(&build(8)).key()
        );
    }

    #[test]
    fn cut_translation_round_trips() {
        let g0 = chain(false);
        let g1 = chain(true);
        let f0 = StructuralForm::of(&g0);
        let f1 = StructuralForm::of(&g1);
        assert_eq!(f0.key(), f1.key());
        // Every single-node cut of g0 maps to a node of g1 with the same opcode.
        for id in (0..g0.node_count()).map(NodeId::new) {
            let cut = CutSet::from_nodes(&g0, [id]);
            let positions = f0.to_canonical(&cut);
            let translated = f1.cut_from_canonical(&g1, &positions);
            assert_eq!(translated.len(), 1);
            let target = translated.iter().next().expect("one node");
            assert_eq!(g0.node(id).opcode, g1.node(target).opcode);
            // Round-trip within one block is the identity.
            assert_eq!(f0.cut_from_canonical(&g0, &positions), cut);
        }
    }

    #[test]
    fn hash_collisions_are_detected_not_merged() {
        let a = StructuralKey {
            hash: 42,
            bytes: vec![1, 2, 3],
        };
        let b = StructuralKey {
            hash: 42,
            bytes: vec![4, 5, 6],
        };
        assert!(a.collides_with(&b));
        assert_ne!(a, b, "equal hashes must not imply equal keys");
        let mut map = std::collections::HashMap::new();
        map.insert(a.clone(), "a");
        map.insert(b.clone(), "b");
        assert_eq!(map.len(), 2, "colliding keys occupy separate entries");
        assert_eq!(map[&a], "a");
        assert_eq!(map[&b], "b");
    }
}
