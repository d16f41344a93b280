//! Bit-level pins on the three training loops. Every case trains LR or a
//! `hidden: 8` MLP through `train`, `train_incremental` or
//! `train_interleaved` on 203 rows (a ragged count, so the last
//! mini-batch of every epoch and every stage is short), LR at widths 1,
//! 2 and 5 and the MLP at width 2, and compares the
//! `to_bits()` of the final weights, of every training and validation
//! loss, and the sample-visit count against recorded constants. A change
//! to how the loops walk, batch or accumulate rows that moves a single
//! float bit fails here, whatever it does to the loss.

use linalg::Matrix;
use mlkit::{
    train, train_incremental, train_interleaved, DenseDataset, ModelKind, Regressor, TrainConfig,
    TrainReport,
};

const ROWS: usize = 203;

fn data() -> DenseDataset {
    let mut rng = linalg::rng::rng_for(29, 203);
    let rows: Vec<Vec<f64>> = (0..ROWS)
        .map(|_| {
            vec![
                linalg::rng::normal(&mut rng, 0.0, 1.0),
                linalg::rng::normal(&mut rng, 0.0, 1.0),
            ]
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| 1.5 * r[0] - 0.5 * r[1] * r[1] + 0.3 + linalg::rng::normal(&mut rng, 0.0, 0.05))
        .collect();
    DenseDataset::new(Matrix::from_rows(&rows), y)
}

/// `ROWS` rows of `width` features: every benchmark federation trains
/// width 1, and width 5 runs `dot`'s four-wide chunk plus its tail.
fn data_of_width(width: usize) -> DenseDataset {
    let mut rng = linalg::rng::rng_for(31, width as u64);
    let rows: Vec<Vec<f64>> = (0..ROWS)
        .map(|_| {
            (0..width)
                .map(|_| linalg::rng::normal(&mut rng, 0.0, 1.0))
                .collect()
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| {
            let linear: f64 = r
                .iter()
                .enumerate()
                .map(|(k, v)| (k as f64 - 1.5) * v)
                .sum();
            linear - 0.4 * r[0] * r[0] + 0.3 + linalg::rng::normal(&mut rng, 0.0, 0.05)
        })
        .collect();
    DenseDataset::new(Matrix::from_rows(&rows), y)
}

/// Two ragged supporting clusters around an empty one.
fn stages(data: &DenseDataset) -> Vec<DenseDataset> {
    let a: Vec<usize> = (0..61).collect();
    let b: Vec<usize> = (61..ROWS).collect();
    vec![data.select(&a), data.select(&[]), data.select(&b)]
}

/// The digest of no values: the runs that record no validation loss.
const NONE: u64 = 0xcbf2_9ce4_8422_2325;

/// A change to how the loops hold or walk rows must leave every constant
/// here as it is; only a deliberate change to what training computes may
/// re-record them.
#[rustfmt::skip]
const LR_PINS: &[(&str, u64, u64, u64, usize)] = &[
    ("LR/train/paper", 0xaf7b918b7482bfa3, 0x108b7c3750b83146, 0x662713800507e236, 16200),
    ("LR/incremental/paper", 0x6f327518fc5e3e77, 0xe2c1a759dd2d9e38, 0x49376aba7e2d5e6e, 16300),
    ("LR/interleaved/paper", 0x59942079526dd993, 0x6b6ed8d9ad1eb8a6, NONE, 20300),
    ("LR/train/no_val", 0xb2a1a45cf17c5139, 0x5ce99149f001f7ad, NONE, 20300),
    ("LR/incremental/no_val", 0x8420cfcec17c0807, 0xe2539e01cf2d094a, NONE, 20300),
    ("LR/interleaved/no_val", 0x59942079526dd993, 0x6b6ed8d9ad1eb8a6, NONE, 20300),
];

#[rustfmt::skip]
const LR_WIDTH_1_PINS: &[(&str, u64, u64, u64, usize)] = &[
    ("LR/d1/train/paper", 0xc868cd844e8f7ccb, 0x05480eaa7d058258, 0x159e695d01dcd20d, 16200),
    ("LR/d1/incremental/paper", 0xca3e87ac470ca0af, 0x08ef49d1eb96c803, 0x5e9fa6d3b29ddebe, 16300),
    ("LR/d1/interleaved/paper", 0xbfc3afbfd1d3def8, 0x919dd8941ffcd881, NONE, 20300),
    ("LR/d1/train/no_val", 0x955a2f46e3fb2c35, 0x74d3578b9f525e0d, NONE, 20300),
    ("LR/d1/incremental/no_val", 0x54a36609ddb72050, 0xd172f7c1ac34c91f, NONE, 20300),
    ("LR/d1/interleaved/no_val", 0xbfc3afbfd1d3def8, 0x919dd8941ffcd881, NONE, 20300),
];

#[rustfmt::skip]
const LR_WIDTH_5_PINS: &[(&str, u64, u64, u64, usize)] = &[
    ("LR/d5/train/paper", 0x025b894107ef2fe3, 0xaabc36e1cb523b73, 0xb212db940df3a5e4, 16200),
    ("LR/d5/incremental/paper", 0xb0abeef5faf65a94, 0xa94b12a8024e202c, 0xfb31169c99c29c55, 16300),
    ("LR/d5/interleaved/paper", 0x160477ad53483e61, 0x7c98aeaeb20c2b63, NONE, 20300),
    ("LR/d5/train/no_val", 0xff8323c1875742fc, 0x01aaa1a3b4137862, NONE, 20300),
    ("LR/d5/incremental/no_val", 0x81cbd0d98b9089c9, 0xae2a205c7ac991a9, NONE, 20300),
    ("LR/d5/interleaved/no_val", 0x160477ad53483e61, 0x7c98aeaeb20c2b63, NONE, 20300),
];

#[rustfmt::skip]
const NN_PINS: &[(&str, u64, u64, u64, usize)] = &[
    ("NN/train/paper", 0xdcc871cadebdfa38, 0x7e3d798bc9e8fce7, 0x22f636bc97e76b7f, 16200),
    ("NN/incremental/paper", 0xe57fbcfa49ec1aba, 0x18b4dcb1dd0dd34d, 0x6cb4f806164f656a, 16300),
    ("NN/interleaved/paper", 0xf9d707771831e58d, 0xee6b9e4c89bcf1bc, NONE, 20300),
    ("NN/train/no_val", 0xa43b02afd3fedc32, 0xa93d3ef6f9882853, NONE, 20300),
    ("NN/incremental/no_val", 0x348d826cfaed2759, 0xe8b827283a1278db, NONE, 20300),
    ("NN/interleaved/no_val", 0xf9d707771831e58d, 0xee6b9e4c89bcf1bc, NONE, 20300),
];

/// FNV-1a over the bit patterns, in order.
fn digest(values: &[f64]) -> u64 {
    values.iter().fold(NONE, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

/// `(case, weights, train_loss, val_loss, samples_seen)`: the digests of
/// the three float sequences and the visit count.
type Pin = (String, u64, u64, u64, usize);

/// Every case of `kind` over `data`, named `<model><tag>/<loop>/<config>`.
fn pins(kind: ModelKind, paper: TrainConfig, data: &DenseDataset, tag: &str) -> Vec<Pin> {
    let model_name = match kind {
        ModelKind::Linear => "LR",
        ModelKind::Neural { .. } => "NN",
    };
    let stages = stages(data);
    let configs = [
        ("paper", paper.clone()),
        (
            "no_val",
            TrainConfig {
                validation_split: 0.0,
                ..paper
            },
        ),
    ];
    let mut out = Vec::new();
    for (label, cfg) in &configs {
        for (name, run) in [("train", 0), ("incremental", 1), ("interleaved", 2)] {
            let mut model = kind.build(data.dim(), 11);
            let report: TrainReport = match run {
                0 => train(&mut model, data, cfg),
                1 => train_incremental(&mut model, &stages, cfg),
                _ => train_interleaved(&mut model, &stages, cfg),
            };
            out.push((
                format!("{model_name}{tag}/{name}/{label}"),
                digest(&model.weights()),
                digest(&report.train_loss),
                digest(&report.val_loss),
                report.samples_seen,
            ));
        }
    }
    out
}

fn check(got: Vec<Pin>, want: &[(&str, u64, u64, u64, usize)]) {
    let want: Vec<Pin> = want
        .iter()
        .map(|&(c, w, t, v, s)| (c.to_string(), w, t, v, s))
        .collect();
    let table: String = got
        .iter()
        .map(|(c, w, t, v, s)| format!("    (\"{c}\", {w:#018x}, {t:#018x}, {v:#018x}, {s}),\n"))
        .collect();
    assert_eq!(got, want, "training bits moved; this run gives\n{table}");
}

#[test]
fn linear_regression_training_is_bit_pinned() {
    let pinned = pins(ModelKind::Linear, TrainConfig::paper_lr(5), &data(), "");
    check(pinned, LR_PINS);
}

#[test]
fn linear_regression_training_is_bit_pinned_at_width_1() {
    let data = data_of_width(1);
    let pinned = pins(ModelKind::Linear, TrainConfig::paper_lr(5), &data, "/d1");
    check(pinned, LR_WIDTH_1_PINS);
}

#[test]
fn linear_regression_training_is_bit_pinned_at_width_5() {
    let data = data_of_width(5);
    let pinned = pins(ModelKind::Linear, TrainConfig::paper_lr(5), &data, "/d5");
    check(pinned, LR_WIDTH_5_PINS);
}

#[test]
fn mlp_training_is_bit_pinned() {
    let nn = ModelKind::Neural { hidden: 8 };
    check(pins(nn, TrainConfig::paper_nn(5), &data(), ""), NN_PINS);
}
