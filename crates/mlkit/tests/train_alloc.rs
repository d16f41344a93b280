//! Allocation discipline of the training loops: a run allocates its
//! buffers once (row lists, optimiser state, one weight vector, one
//! gradient buffer), never per epoch, per mini-batch or per sample.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the
//! measurement windows run on this test binary's only test, so the
//! deltas belong to the code under test. The bounds are set well above
//! what one run needs and far below one allocation per batch, so they
//! flag a copy that comes back, not a change of allocator or std.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use linalg::Matrix;
use mlkit::{train, DenseDataset, ModelKind, TrainConfig};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn data(n: usize) -> DenseDataset {
    let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % 97) as f64 / 97.0]).collect();
    let y = rows.iter().map(|r| 2.0 * r[0] - 0.5).collect();
    DenseDataset::new(Matrix::from_rows(&rows), y)
}

/// Allocations of one `train` run of `kind` under `config` over `data`.
fn train_allocations(kind: ModelKind, data: &DenseDataset, config: &TrainConfig) -> u64 {
    let mut model = kind.build(1, 3);
    allocations(|| {
        train(&mut model, data, config);
    })
}

/// Both checks share one test: a second test in this binary would run
/// beside it and land in its windows.
#[test]
fn training_allocates_per_run_not_per_epoch_batch_or_sample() {
    let data = data(2_000);
    let lr = TrainConfig::paper_lr(1);
    let nn = TrainConfig::paper_nn(1).with_epochs(5);
    let mlp = ModelKind::Neural { hidden: 16 };
    // Warm the lazily registered telemetry and the thread's scratch.
    train_allocations(ModelKind::Linear, &data, &lr.clone().with_epochs(1));
    train_allocations(mlp, &data, &nn.clone().with_epochs(1));

    // Table III's LR: 100 epochs of 50 batches over 1 600 training rows
    // plus 400 validation rows. Copying each batch's rows and a fresh
    // gradient and weight vector per step would be about five
    // allocations per batch, 25 000 in all.
    let lr_allocs = train_allocations(ModelKind::Linear, &data, &lr);
    assert!(
        lr_allocs <= 64,
        "LR training made {lr_allocs} allocations over 100 epochs of 50 batches"
    );

    // The MLP forwards 5 × 2 000 samples through a hidden layer (training
    // and validation); an activation vector per sample would be 10 000.
    let nn_allocs = train_allocations(mlp, &data, &nn);
    assert!(
        nn_allocs <= 64,
        "MLP training made {nn_allocs} allocations over 10 000 sample visits"
    );
}
