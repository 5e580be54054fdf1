//! The benchmark's inputs: suite kernels with seeded perturbed
//! immediates, and the pinned answer table they are checked against.

use crate::util::Rng;
use satmapit_cgra::Cgra;
use satmapit_dfg::{Dfg, Op};
use satmapit_kernels::Kernel;

/// Mesh sizes of the compiler-path workload. 5x5 is left out: one job
/// (`patricia@5x5`, several seconds) would set the whole pass.
pub const SUITE_SIZES: [u16; 3] = [2, 3, 4];

/// Expected (MII, II) per (kernel, mesh size), recorded with the SAT
/// backend and cross-checked with the morph backend (`--record-pins`).
const PINNED: &str = include_str!("../data/pinned.txt");

/// What a problem that fails to map or to check adds to `ii_sum` beyond
/// its pinned II, so a failure reads as a large regression, never a gain.
pub const II_PENALTY: u32 = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    pub mii: u32,
    pub ii: u32,
}

/// Looks up the pinned answer for `kernel` at `size`x`size`.
pub fn pinned(kernel: &str, size: u16) -> Pin {
    PINNED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f[0] == kernel && f[1].parse::<u16>().ok() == Some(size)).then(|| Pin {
                mii: f[2].parse().expect("pinned MII is an integer"),
                ii: f[3].parse().expect("pinned II is an integer"),
            })
        })
        .unwrap_or_else(|| panic!("no pinned answer for {kernel}@{size}x{size}"))
}

/// `dfg` with the immediate of constant node `which` (counted among the
/// constants) replaced by `imm`. The encoder never reads immediates, so
/// the copy is exactly as hard to map as the original, but it is a
/// different problem to every cache (the fingerprint hashes immediates).
pub fn with_immediate(dfg: &Dfg, which: usize, imm: i64) -> Dfg {
    let consts: Vec<usize> = dfg
        .node_ids()
        .filter(|&n| dfg.node(n).op == Op::Const)
        .map(|n| n.index())
        .collect();
    let target = consts[which % consts.len()];
    let mut out = Dfg::new(dfg.name());
    for n in dfg.node_ids() {
        let node = dfg.node(n);
        let value = if n.index() == target { imm } else { node.imm };
        out.add_node_labeled(node.op, value, node.label.clone());
    }
    for (_, e) in dfg.edges() {
        out.add_back_edge(e.src, e.dst, e.operand, e.distance, e.init);
    }
    out
}

pub fn num_consts(dfg: &Dfg) -> usize {
    dfg.node_ids()
        .filter(|&n| dfg.node(n).op == Op::Const)
        .count()
}

/// A suite kernel with one seeded immediate perturbed, drawn so that the
/// reference interpreter still runs it (a perturbed address constant
/// could leave data memory).
pub fn perturbed_kernel(kernel: &Kernel, rng: &mut Rng, iterations: u32) -> Kernel {
    for _ in 0..64 {
        let which = rng.below(num_consts(&kernel.dfg).max(1));
        let delta = 1 + rng.below(3) as i64;
        let base = kernel
            .dfg
            .node_ids()
            .filter(|&n| kernel.dfg.node(n).op == Op::Const)
            .nth(which)
            .map_or(0, |n| kernel.dfg.node(n).imm);
        let dfg = with_immediate(&kernel.dfg, which, base + delta);
        if satmapit_dfg::interp::interpret(&dfg, kernel.memory.clone(), iterations).is_ok() {
            return Kernel {
                dfg,
                ..kernel.clone()
            };
        }
    }
    kernel.clone()
}

/// One mapping problem with its expected answer.
#[derive(Debug, Clone)]
pub struct Problem {
    pub label: String,
    pub dfg: Dfg,
    pub cgra: Cgra,
    pub pin: Pin,
}

/// A 4-node chain whose constant is `imm`: maps at II 1 on any mesh in
/// microseconds, so a request for it costs the service almost nothing
/// beyond its cache miss and store append.
pub fn trivial_chain(imm: i64) -> Dfg {
    let mut dfg = Dfg::new("chain");
    let mut prev = dfg.add_const(imm);
    for op in [Op::Neg, Op::Neg, Op::Neg] {
        let next = dfg.add_node(op);
        dfg.add_edge(prev, next, 0);
        prev = next;
    }
    dfg
}
