//! Memory layout of an edge node: a summary-only node is the leader view
//! and nothing else. At a million nodes every byte of `EdgeNode` is a
//! megabyte of fleet, so the inline size and the allocations of
//! `EdgeNode::from_summaries` are pinned here.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The
//! measurement window runs on this test binary's main thread with no
//! other tests in the file, so the counts belong to the code under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qens::cluster::ClusterSummary;
use qens::edgesim::{EdgeNode, NodeId};
use qens::geom::HyperRect;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn measured<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = BYTES.load(Ordering::Relaxed);
    let r = f();
    (
        r,
        ALLOCS.load(Ordering::Relaxed) - a0,
        BYTES.load(Ordering::Relaxed) - b0,
    )
}

/// The inline node is the leader view — id, name, capacity, link,
/// summaries, epoch — plus one pointer to the optional node-local part;
/// building a summary-only node moves its name and summaries in and
/// allocates nothing of its own (no rows, no joint matrix).
#[test]
fn a_summary_only_node_is_the_leader_view_alone() {
    assert!(
        std::mem::size_of::<EdgeNode>() <= 96,
        "EdgeNode is {} bytes inline; the node-local part belongs behind its box",
        std::mem::size_of::<EdgeNode>()
    );
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
    let name = String::from("fleet-0");
    let (node, allocs, bytes) =
        measured(move || EdgeNode::from_summaries(NodeId(0), name, 1.0, summaries));
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "from_summaries allocated {allocs} times, {bytes} bytes"
    );
    assert_eq!((node.len(), node.k(), node.joint_dim()), (0, 3, 2));
}
