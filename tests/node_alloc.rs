//! Memory layout of an edge node: a summary-only node is the leader view
//! and nothing else. At a million nodes every byte of `EdgeNode` is a
//! megabyte of fleet, so the inline size and the heap blocks a
//! summary-only node keeps are pinned here.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The
//! measurement window runs on this test binary's main thread with no
//! other tests in the file, so the counts belong to the code under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use qens::cluster::ClusterSummary;
use qens::edgesim::{EdgeNode, NodeId};
use qens::geom::HyperRect;

struct Counting;

/// Heap blocks allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// `f`'s result and the heap blocks still live when it returns.
fn retained<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let live = LIVE.load(Ordering::Relaxed);
    let r = f();
    (r, LIVE.load(Ordering::Relaxed) - live)
}

/// The inline node is the leader view — id, name, capacity, link,
/// summaries, epoch — plus one pointer to the optional node-local part.
/// Of the summaries it is given, a summary-only node keeps one flat
/// block: no block per cluster, no representative, no rows.
#[test]
fn a_summary_only_node_is_the_leader_view_alone() {
    assert!(
        std::mem::size_of::<EdgeNode>() <= 96,
        "EdgeNode is {} bytes inline; the node-local part belongs behind its box",
        std::mem::size_of::<EdgeNode>()
    );
    let name = String::from("fleet-0");
    let (node, blocks) = retained(move || {
        let summaries: Vec<ClusterSummary> = (0..3)
            .map(|k| {
                let lo = k as f64;
                ClusterSummary {
                    cluster_id: k,
                    size: 10 + k,
                    representative: vec![lo + 0.5, lo + 0.5],
                    rect: HyperRect::from_boundary_vec(&[lo, lo + 1.0, lo, lo + 1.0]),
                }
            })
            .collect();
        EdgeNode::from_summaries(NodeId(0), name, 1.0, summaries)
    });
    assert!(
        blocks <= 1,
        "a 3-cluster summary-only node keeps {blocks} heap blocks besides its name"
    );
    assert_eq!((node.len(), node.k(), node.joint_dim()), (0, 3, 2));
}
