//! Olden stand-ins: linked data structures with dependent misses.
//!
//! The paper runs `em3d` (20,000 nodes, arity 10), `mst` (1024 nodes),
//! `perimeter` (4K x 4K image) and `treeadd` (20 levels). Each kernel here
//! reproduces the namesake's access skeleton: graph relaxation through
//! indirection arrays, hash-bucket chain walking, quadtree recursion and
//! binary-tree recursion. Node placement follows each original's
//! allocation pattern (Olden programs build their structures in one
//! recursive pass, so traversals have the locality of allocation order,
//! with misses on the long hops).

use crate::gen::{rng, Heap, STACK_TOP};
use crate::{Suite, Workload};
use std::collections::VecDeque;
use wib_isa::asm::ProgramBuilder;
use wib_isa::reg::*;

/// `treeadd`: recursive sum over a binary tree of `2^levels - 1` nodes.
///
/// Nodes are 16 bytes (`left`, `right`, `value`, pad) and laid out in
/// depth-first allocation order, as Olden's recursive allocator produces:
/// left children are adjacent (often the same cache line) while right
/// children jump a whole subtree away and miss.
pub fn treeadd(levels: u32, repeats: u32) -> Workload {
    assert!((1..=22).contains(&levels));
    let n = (1u32 << levels) - 1;
    let mut heap = Heap::new();
    let region = heap.alloc(n * 16, 64);
    // Preorder (DFS) index of every heap-array node.
    let mut preorder = vec![0u32; n as usize];
    let mut counter = 0u32;
    let mut stack = vec![0u32];
    while let Some(i) = stack.pop() {
        preorder[i as usize] = counter;
        counter += 1;
        // Push right then left so the left subtree is visited first.
        if 2 * i + 2 < n {
            stack.push(2 * i + 2);
        }
        if 2 * i + 1 < n {
            stack.push(2 * i + 1);
        }
    }
    let addr = |i: u32| region + preorder[i as usize] * 16;

    // Heap-array tree: node i has children 2i+1, 2i+2.
    let mut data = vec![0u8; (n * 16) as usize];
    for i in 0..n {
        let base = (addr(i) - region) as usize;
        let left = if 2 * i + 1 < n { addr(2 * i + 1) } else { 0 };
        let right = if 2 * i + 2 < n { addr(2 * i + 2) } else { 0 };
        let value = 1u32;
        data[base..base + 4].copy_from_slice(&left.to_le_bytes());
        data[base + 4..base + 8].copy_from_slice(&right.to_le_bytes());
        data[base + 8..base + 12].copy_from_slice(&value.to_le_bytes());
    }

    let mut b = ProgramBuilder::new(0x1000);
    b.data_bytes(region, &data);
    b.li(SP, STACK_TOP);
    b.li(R20, repeats as i32 as u32);
    b.li(R21, 0); // checksum
    b.label("repeat");
    b.li(R1, addr(0));
    b.jal("sum");
    b.add(R21, R21, R2);
    b.addi(R20, R20, -1);
    b.bne(R20, R0, "repeat");
    b.halt();

    // fn sum(r1: node) -> r2
    b.label("sum");
    b.bne(R1, R0, "sum_node");
    b.li(R2, 0);
    b.ret();
    b.label("sum_node");
    b.addi(SP, SP, -16);
    b.sw(RA, SP, 0);
    b.sw(R1, SP, 4);
    b.lw(R3, R1, 0); // left
    b.mv(R1, R3);
    b.jal("sum");
    b.sw(R2, SP, 8); // left sum
    b.lw(R1, SP, 4);
    b.lw(R3, R1, 4); // right
    b.mv(R1, R3);
    b.jal("sum");
    b.lw(R3, SP, 8);
    b.add(R2, R2, R3);
    b.lw(R1, SP, 4);
    b.lw(R4, R1, 8); // value
    b.add(R2, R2, R4);
    b.lw(RA, SP, 0);
    b.addi(SP, SP, 16);
    b.ret();

    Workload::new(
        "treeadd",
        Suite::Olden,
        b.finish().expect("treeadd assembles"),
    )
}

/// `perimeter`: recursive quadtree traversal.
///
/// Internal nodes hold four child pointers; leaves contribute their
/// stored border length. `max_nodes` bounds the randomly grown tree; the
/// node records are scattered through the region.
pub fn perimeter(max_nodes: u32, repeats: u32) -> Workload {
    assert!(max_nodes >= 5);
    let mut r = rng(0x9e81);
    // Grow a random quadtree breadth-first up to max_nodes.
    // children[i] == u32::MAX means "not yet decided".
    let mut children: Vec<[u32; 4]> = vec![[u32::MAX; 4]];
    let mut is_leaf: Vec<bool> = vec![false];
    let mut frontier = VecDeque::from([0u32]);
    while (children.len() as u32) < max_nodes {
        let Some(node) = frontier.pop_front() else {
            break;
        };
        for c in 0..4 {
            if (children.len() as u32) >= max_nodes {
                break;
            }
            let id = children.len() as u32;
            let leaf = r.random_range(0..100) < 35;
            children.push([u32::MAX; 4]);
            is_leaf.push(leaf);
            children[node as usize][c] = id;
            if !leaf {
                frontier.push_back(id);
            }
        }
    }
    let n = children.len() as u32;
    // Undecided children become absent; childless internals become leaves.
    for i in 0..n as usize {
        if children[i].iter().all(|&c| c == u32::MAX) {
            is_leaf[i] = true;
        }
    }

    // Node record: [leaf_flag, c0, c1, c2, c3, value] = 24 bytes. Nodes
    // are laid out in allocation (BFS) order — Olden's perimeter allocates
    // the tree in one pass, so traversal has moderate locality.
    let mut heap = Heap::new();
    let region = heap.alloc(n * 24, 64);
    let addr = |i: u32| region + i * 24;
    let mut data = vec![0u8; (n * 24) as usize];
    for i in 0..n {
        let base = (addr(i) - region) as usize;
        let words: [u32; 6] = [
            is_leaf[i as usize] as u32,
            child_addr(&children, i, 0, &addr),
            child_addr(&children, i, 1, &addr),
            child_addr(&children, i, 2, &addr),
            child_addr(&children, i, 3, &addr),
            1 + (i % 4),
        ];
        for (w, word) in words.iter().enumerate() {
            data[base + 4 * w..base + 4 * w + 4].copy_from_slice(&word.to_le_bytes());
        }
    }

    fn child_addr(children: &[[u32; 4]], i: u32, c: usize, addr: &dyn Fn(u32) -> u32) -> u32 {
        match children[i as usize][c] {
            u32::MAX => 0,
            id => addr(id),
        }
    }

    let mut b = ProgramBuilder::new(0x1000);
    b.data_bytes(region, &data);
    b.li(SP, STACK_TOP);
    b.li(R20, repeats as i32 as u32);
    b.li(R21, 0);
    b.label("repeat");
    b.li(R1, addr(0));
    b.jal("peri");
    b.add(R21, R21, R2);
    b.addi(R20, R20, -1);
    b.bne(R20, R0, "repeat");
    b.halt();

    // fn peri(r1: node) -> r2
    b.label("peri");
    b.bne(R1, R0, "peri_node");
    b.li(R2, 0);
    b.ret();
    b.label("peri_node");
    b.lw(R3, R1, 0); // leaf flag
    b.beq(R3, R0, "peri_internal");
    b.lw(R2, R1, 20); // leaf: border value
    b.ret();
    b.label("peri_internal");
    b.addi(SP, SP, -16);
    b.sw(RA, SP, 0);
    b.sw(R1, SP, 4);
    b.sw(R0, SP, 8); // accumulator
    for c in 0..4i32 {
        b.lw(R4, R1, 4 + 4 * c);
        b.mv(R1, R4);
        b.jal("peri");
        b.lw(R5, SP, 8);
        b.add(R5, R5, R2);
        b.sw(R5, SP, 8);
        b.lw(R1, SP, 4); // reload node
    }
    b.lw(R2, SP, 8);
    b.lw(RA, SP, 0);
    b.addi(SP, SP, 16);
    b.ret();

    Workload::new(
        "perimeter",
        Suite::Olden,
        b.finish().expect("perimeter assembles"),
    )
}

/// `mst`: per-vertex hash-table scan for the minimum-weight edge.
///
/// Every vertex owns `buckets` chains of edge records; the kernel walks
/// all chains of all vertices, `repeats` times. The table is several
/// times the L2, so hops are mostly misses — the dependent-chain access
/// pattern that keeps scaling past a 2K-entry window in the paper's
/// Figure 1.
pub fn mst(vertices: u32, buckets: u32, edges_per_vertex: u32, repeats: u32) -> Workload {
    let mut r = rng(0x357);
    let mut heap = Heap::new();
    let heads_base = heap.alloc(vertices * buckets * 4, 64);
    let total_edges = vertices * edges_per_vertex;
    // Two edges per cache line: hops usually miss but the table gets
    // some reuse across repeats (the paper's mst graph is only 1024
    // nodes).
    let edge_region = heap.alloc(total_edges * 32, 64);
    // Edges are laid out in allocation order: mst builds each vertex's
    // hash table in one pass, so chains are contiguous in memory.
    let edge_addr = |i: u32| edge_region + i * 32;

    let mut heads = vec![0u8; (vertices * buckets * 4) as usize];
    let mut edges = vec![0u8; (total_edges * 32) as usize];
    let mut next_edge = 0u32;
    for v in 0..vertices {
        // Distribute this vertex's edges over its buckets.
        let mut chain_head: Vec<u32> = vec![0; buckets as usize];
        for e in 0..edges_per_vertex {
            let bkt = r.random_range(0..buckets) as usize;
            let a = edge_addr(next_edge);
            next_edge += 1;
            let off = (a - edge_region) as usize;
            let weight: u32 = r.random_range(1..1_000_000);
            edges[off..off + 4].copy_from_slice(&(v * 1000 + e).to_le_bytes());
            edges[off + 4..off + 8].copy_from_slice(&weight.to_le_bytes());
            edges[off + 8..off + 12].copy_from_slice(&chain_head[bkt].to_le_bytes());
            chain_head[bkt] = a;
        }
        for (bkt, &head) in chain_head.iter().enumerate() {
            let off = ((v * buckets) as usize + bkt) * 4;
            heads[off..off + 4].copy_from_slice(&head.to_le_bytes());
        }
    }

    let mut b = ProgramBuilder::new(0x1000);
    b.data_bytes(heads_base, &heads);
    b.data_bytes(edge_region, &edges);
    b.li(R20, repeats as i32 as u32);
    b.li(R22, 0); // total
    b.label("repeat");
    b.li(R1, heads_base);
    b.li(R2, vertices);
    b.label("vertex");
    b.li(R3, 0x7fff_ffff); // min
    b.li(R4, buckets);
    b.label("bucket");
    b.lw(R5, R1, 0); // chain head
    b.label("chain");
    b.beq(R5, R0, "chain_done");
    b.lw(R6, R5, 4); // weight
    b.bge(R6, R3, "no_min");
    b.mv(R3, R6);
    b.label("no_min");
    b.lw(R5, R5, 8); // next (dependent load)
    b.j("chain");
    b.label("chain_done");
    b.addi(R1, R1, 4);
    b.addi(R4, R4, -1);
    b.bne(R4, R0, "bucket");
    b.add(R22, R22, R3);
    b.addi(R2, R2, -1);
    b.bne(R2, R0, "vertex");
    b.addi(R20, R20, -1);
    b.bne(R20, R0, "repeat");
    b.halt();

    Workload::new("mst", Suite::Olden, b.finish().expect("mst assembles"))
}

/// `em3d`: electromagnetic graph relaxation.
///
/// Each node's value is recomputed as a weighted sum of `arity` other
/// nodes' values reached through an indirection array — indirect loads
/// whose addresses arrive from memory, mixed FP compute, `iters` sweeps.
pub fn em3d(nodes: u32, arity: u32, iters: u32) -> Workload {
    assert!((1..=16).contains(&arity));
    let mut r = rng(0xe3d);
    // Record layout: value f64 @0; from_ptrs u32 x arity @8;
    // coeffs f64 x arity @ptr_end (8-aligned).
    let ptrs_bytes = 4 * arity;
    let coeff_off = 8 + ((ptrs_bytes + 7) & !7);
    let rec = coeff_off + 8 * arity;
    let mut heap = Heap::new();
    let region = heap.alloc(nodes * rec, 64);
    let addr = |i: u32| region + i * rec;

    let mut data = vec![0u8; (nodes * rec) as usize];
    for i in 0..nodes {
        let base = (addr(i) - region) as usize;
        data[base..base + 8].copy_from_slice(&r.random_range(0.5f64..1.5).to_bits().to_le_bytes());
        for k in 0..arity {
            // Most graph neighbours are physically nearby (em3d builds
            // its bipartite lists locally); a fraction are remote and
            // miss.
            let other = if r.random_range(0..8u32) == 0 {
                addr(r.random_range(0..nodes))
            } else {
                let lo = i.saturating_sub(8);
                let hi = (i + 8).min(nodes - 1);
                addr(r.random_range(lo..=hi))
            };
            let po = base + 8 + 4 * k as usize;
            data[po..po + 4].copy_from_slice(&other.to_le_bytes());
            let co = base + coeff_off as usize + 8 * k as usize;
            let coeff = 1.0 / (arity as f64) * r.random_range(0.25f64..0.75);
            data[co..co + 8].copy_from_slice(&coeff.to_bits().to_le_bytes());
        }
    }

    // Relaxation refines each block of nodes a few times before moving
    // on; only a block's first sweep streams from DRAM.
    const BLOCK: u32 = 512;
    const REFINE: u32 = 3;
    let block = BLOCK.min(nodes);
    assert!(
        nodes.is_multiple_of(block),
        "node count must be a multiple of the block"
    );
    let mut b = ProgramBuilder::new(0x1000);
    b.data_bytes(region, &data);
    b.li(R20, iters as i32 as u32);
    b.label("iter");
    b.li(R1, region);
    b.li(R5, nodes / block);
    b.label("block");
    b.li(R6, REFINE as i32 as u32);
    b.label("refine");
    b.mv(R7, R1); // rewind to block start
    b.li(R2, block);
    b.label("node");
    // acc = 0.0 (f10); walk the from-list.
    b.cvtif(F10, R0);
    for k in 0..arity as i32 {
        b.lw(R3, R7, 8 + 4 * k); // pointer from memory
        b.fld(F1, R3, 0); // indirect value load
        b.fld(F2, R7, coeff_off as i32 + 8 * k);
        b.fmul(F3, F1, F2);
        b.fadd(F10, F10, F3);
    }
    b.fsd(F10, R7, 0);
    b.addi(R7, R7, rec as i32);
    b.addi(R2, R2, -1);
    b.bne(R2, R0, "node");
    b.addi(R6, R6, -1);
    b.bne(R6, R0, "refine");
    b.mv(R1, R7); // next block
    b.addi(R5, R5, -1);
    b.bne(R5, R0, "block");
    b.addi(R20, R20, -1);
    b.bne(R20, R0, "iter");
    b.halt();

    Workload::new("em3d", Suite::Olden, b.finish().expect("em3d assembles"))
}

/// Paper-scale instances (see module docs).
pub fn eval() -> Vec<Workload> {
    vec![
        em3d(20_480, 10, 4),
        mst(1024, 16, 32, 8),
        perimeter(120_000, 8),
        treeadd(18, 6),
    ]
}

/// Miniatures for fast co-simulated tests.
pub fn tiny() -> Vec<Workload> {
    vec![
        em3d(64, 4, 2),
        mst(16, 4, 8, 2),
        perimeter(64, 2),
        treeadd(6, 2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wib_isa::interp::{Interpreter, StopReason};

    fn runs_to_halt(w: &Workload, budget: u64) -> Interpreter {
        let mut i = Interpreter::new(w.program());
        let stop = i.run(budget).expect("no invalid instructions");
        assert_eq!(
            stop,
            StopReason::Halted,
            "{} did not halt in {budget}",
            w.name()
        );
        i
    }

    #[test]
    fn treeadd_sums_all_nodes() {
        let w = treeadd(6, 2);
        let i = runs_to_halt(&w, 100_000);
        // 63 nodes, value 1 each, 2 traversals.
        assert_eq!(i.int_reg(R21), 2 * 63);
    }

    #[test]
    fn perimeter_accumulates_leaves() {
        let w = perimeter(64, 1);
        let i = runs_to_halt(&w, 200_000);
        assert!(i.int_reg(R21) > 0);
    }

    #[test]
    fn mst_finds_minima() {
        let w = mst(16, 4, 8, 1);
        let i = runs_to_halt(&w, 200_000);
        let total = i.int_reg(R22);
        // 16 vertices, each min weight in 1..1e6.
        assert!(total >= 16 && total < 16_000_000);
    }

    #[test]
    fn em3d_converges_numerically() {
        let w = em3d(64, 4, 2);
        runs_to_halt(&w, 200_000);
    }

    #[test]
    fn eval_instances_are_big() {
        // Spot check: eval treeadd covers >100k dynamic instructions.
        let w = treeadd(14, 1);
        let mut i = Interpreter::new(w.program());
        let stop = i.run(150_000).unwrap();
        assert_eq!(stop, StopReason::BudgetExhausted);
    }
}
