//! Seeded inputs per Table-I kernel, shared by the differential harness and
//! the interpreter digest table. Index-like arrays (neighbor lists, sparse
//! columns, scatter indices, join keys) hold valid indices; everything else
//! is seeded dense data. Kernels not listed here run on zero-filled arrays,
//! which every kernel accepts.

use std::collections::BTreeMap;

use dsagen::workloads::data;

/// The input arrays of the kernel named `name`. Every generator seed, and
/// the decompositions' diagonal, is offset by `salt`, so `salt` 0 and 1 are
/// two unrelated input sets over the same index structure.
pub fn seeded_inputs(name: &str, salt: u64) -> BTreeMap<String, Vec<f64>> {
    let s = |seed: u64| seed + salt;
    let pairs: Vec<(&str, Vec<f64>)> = match name {
        "mm" => vec![
            ("a", data::dense_f64(64 * 64, -1.0, 1.0, s(1))),
            ("b", data::dense_f64(64 * 64, -1.0, 1.0, s(2))),
        ],
        "stencil-2d" => vec![
            ("src", data::dense_f64(130 * 130, 0.0, 1.0, s(3))),
            ("coef", data::dense_f64(9, -1.0, 1.0, s(4))),
        ],
        "stencil-3d" => vec![(
            "src",
            data::dense_f64(32 * 32 * 16 + 2 * 32 * 32, -1.0, 1.0, s(6)),
        )],
        "md" => {
            let (atoms, neighbors) = (128usize, 16usize);
            let mut nl = Vec::with_capacity(atoms * neighbors);
            for i in 0..atoms {
                for j in 0..neighbors {
                    nl.push(((i + j + 1) % atoms) as f64); // never self
                }
            }
            vec![
                ("pos_x", data::dense_f64(atoms, -4.0, 4.0, s(80))),
                ("pos_y", data::dense_f64(atoms, -4.0, 4.0, s(81))),
                ("pos_z", data::dense_f64(atoms, -4.0, 4.0, s(82))),
                ("neigh", nl),
            ]
        }
        "spmv-crs" | "spmv-ellpack" => {
            let (rows, width, cols) = (464usize, 4usize, 512usize);
            let (sv, sc, sx) = if name == "spmv-crs" {
                (110, 111, 112)
            } else {
                (20, 21, 22)
            };
            let mut col_idx = Vec::with_capacity(rows * width);
            for r in 0..rows {
                for c in data::sparse_row_cols(width, cols, s(sc + r as u64)) {
                    col_idx.push(f64::from(c));
                }
            }
            vec![
                ("vals", data::dense_f64(rows * width, -1.0, 1.0, s(sv))),
                ("cols", col_idx),
                ("x", data::dense_f64(cols, -1.0, 1.0, s(sx))),
            ]
        }
        "histogram" => vec![(
            "samples",
            data::histogram_samples(1 << 16, 1 << 10, s(5))
                .into_iter()
                .map(f64::from)
                .collect(),
        )],
        "join" => vec![
            (
                "key0",
                data::sorted_keys(768, 0.33, s(10))
                    .into_iter()
                    .map(|k| k as f64)
                    .collect(),
            ),
            ("val0", data::dense_f64(768, 1.0, 5.0, s(12))),
            (
                "key1",
                data::sorted_keys(768, 0.33, s(11))
                    .into_iter()
                    .map(|k| k as f64)
                    .collect(),
            ),
            ("val1", data::dense_f64(768, 1.0, 5.0, s(13))),
        ],
        "qr" | "cholesky" => {
            // Diagonally dominant, so both factorizations exist.
            let n = 32usize;
            let mut a = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    a[i * n + j] = if i == j {
                        8.0 + salt as f64
                    } else {
                        1.0 / (1.0 + (i as f64 - j as f64).abs())
                    };
                }
            }
            vec![("a", a)]
        }
        "fft" => vec![
            ("re", data::dense_f64(1 << 10, -1.0, 1.0, s(70))),
            ("im", data::dense_f64(1 << 10, -1.0, 1.0, s(71))),
            ("tw_re", data::dense_f64(1 << 9, -1.0, 1.0, s(72))),
            ("tw_im", data::dense_f64(1 << 9, -1.0, 1.0, s(73))),
        ],
        "centro-fir" => vec![
            ("x", data::dense_f64(2048 + 32, -1.0, 1.0, s(30))),
            ("coef", data::dense_f64(16, -1.0, 1.0, s(31))),
        ],
        // 16-bit integer FIR: keep values small and integral so the
        // narrow datapath cannot wrap.
        "fir16" => vec![
            (
                "x",
                data::dense_f64(2048 + 32, 0.0, 4.0, s(32))
                    .into_iter()
                    .map(f64::trunc)
                    .collect(),
            ),
            (
                "coef",
                data::dense_f64(16, 0.0, 3.0, s(33))
                    .into_iter()
                    .map(f64::trunc)
                    .collect(),
            ),
        ],
        "poly-mm" => vec![
            ("a", data::dense_f64(32 * 32, -1.0, 1.0, s(88))),
            ("b", data::dense_f64(32 * 32, -1.0, 1.0, s(89))),
        ],
        "poly-2mm" => vec![
            ("a", data::dense_f64(32 * 32, -1.0, 1.0, s(90))),
            ("b", data::dense_f64(32 * 32, -1.0, 1.0, s(91))),
            ("c", data::dense_f64(32 * 32, -1.0, 1.0, s(92))),
        ],
        "poly-3mm" => vec![
            ("a", data::dense_f64(32 * 32, -1.0, 1.0, s(90))),
            ("b", data::dense_f64(32 * 32, -1.0, 1.0, s(91))),
            ("c", data::dense_f64(32 * 32, -1.0, 1.0, s(92))),
            ("d", data::dense_f64(32 * 32, -1.0, 1.0, s(93))),
        ],
        "poly-atax" => vec![
            ("a", data::dense_f64(32 * 32, -1.0, 1.0, s(60))),
            ("x", data::dense_f64(32, -1.0, 1.0, s(61))),
        ],
        "poly-mvt" => vec![
            ("a", data::dense_f64(32 * 32, -1.0, 1.0, s(94))),
            ("y1", data::dense_f64(32, -1.0, 1.0, s(95))),
            ("y2", data::dense_f64(32, -1.0, 1.0, s(96))),
        ],
        "poly-bicg" => vec![
            ("a", data::dense_f64(32 * 32, -1.0, 1.0, s(94))),
            ("r", data::dense_f64(32, -1.0, 1.0, s(97))),
            ("p", data::dense_f64(32, -1.0, 1.0, s(98))),
        ],
        "nn-conv" => vec![
            ("input", data::dense_f64(28 * 28, -1.0, 1.0, s(100))),
            ("weights", data::dense_f64(8 * 9, -1.0, 1.0, s(101))),
        ],
        "nn-pool" => vec![("input", data::dense_f64(8 * 26 * 26, -1.0, 1.0, s(50)))],
        "nn-classifier" => vec![
            ("x", data::dense_f64(256, -0.5, 0.5, s(40))),
            ("w", data::dense_f64(256 * 128, -0.2, 0.2, s(41))),
        ],
        "sparse-cnn" => vec![
            ("val_a", data::dense_f64(256, -1.0, 1.0, s(120))),
            (
                "idx_a",
                data::sparse_row_cols(256, 4096, s(121))
                    .into_iter()
                    .map(f64::from)
                    .collect(),
            ),
            ("val_b", data::dense_f64(256, -1.0, 1.0, s(123))),
            (
                "idx_b",
                data::sparse_row_cols(256, 4096, s(122))
                    .into_iter()
                    .map(f64::from)
                    .collect(),
            ),
        ],
        _ => vec![],
    };
    pairs.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
}
