//! Functional validation: every evaluation workload, executed by the
//! value-level interpreter over seeded data, must match a hand-written
//! reference implementation. This pins down the *semantics* of the kernel
//! IR — the timing results of the other tests are meaningless if the
//! kernels don't compute what the paper's kernels compute.

use std::collections::BTreeMap;

use dsagen::dfg::interp::execute;
use dsagen::workloads::data;

fn inputs(pairs: &[(&str, Vec<f64>)]) -> BTreeMap<String, Vec<f64>> {
    pairs
        .iter()
        .map(|(n, v)| (n.to_string(), v.clone()))
        .collect()
}

fn assert_close(actual: &[f64], expected: &[f64], tol: f64, what: &str) {
    assert_eq!(actual.len(), expected.len(), "{what}: length mismatch");
    for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert!(
            (a - e).abs() <= tol * (1.0 + e.abs()),
            "{what}[{i}]: got {a}, expected {e}"
        );
    }
}

#[test]
fn gemm_matches_naive_matmul() {
    let n = 64usize;
    let a = data::dense_f64(n * n, -1.0, 1.0, 1);
    let b = data::dense_f64(n * n, -1.0, 1.0, 2);
    let kernel = dsagen::workloads::machsuite::mm();
    let out = execute(&kernel, &inputs(&[("a", a.clone()), ("b", b.clone())])).unwrap();

    let mut expected = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            expected[i * n + j] = acc;
        }
    }
    assert_close(&out["c"], &expected, 1e-9, "gemm");
}

#[test]
fn stencil2d_matches_direct_convolution() {
    let (n, m) = (130usize, 128usize);
    let src = data::dense_f64(n * n, 0.0, 1.0, 3);
    let coef = data::dense_f64(9, -1.0, 1.0, 4);
    let kernel = dsagen::workloads::machsuite::stencil2d();
    let out = execute(
        &kernel,
        &inputs(&[("src", src.clone()), ("coef", coef.clone())]),
    )
    .unwrap();

    let mut expected = vec![0.0; m * m];
    for r in 0..m {
        for c in 0..m {
            let mut acc = 0.0;
            for dr in 0..3 {
                for dc in 0..3 {
                    acc += src[(r + dr) * n + (c + dc)] * coef[dr * 3 + dc];
                }
            }
            expected[r * m + c] = acc;
        }
    }
    assert_close(&out["dst"], &expected, 1e-9, "stencil2d");
}

#[test]
fn histogram_matches_counting() {
    let (bins, samples) = (1usize << 10, 1usize << 14); // smaller sample set, same bins
    let idx: Vec<f64> = data::histogram_samples(samples, bins, 5)
        .into_iter()
        .map(f64::from)
        .collect();
    // The Table I kernel uses 2^16 samples; the interpreter accepts any
    // prefix by zero-padding — instead build the same kernel shape at
    // reduced size via the public builder for an exact comparison.
    let kernel = dsagen::workloads::sparse::histogram();
    let mut padded = idx.clone();
    padded.resize(1 << 16, 0.0);
    let out = execute(&kernel, &inputs(&[("samples", padded.clone())])).unwrap();

    let mut expected = vec![0.0; bins];
    for s in &padded {
        expected[*s as usize] += 1.0;
    }
    assert_close(&out["hist"], &expected, 0.0, "histogram");
}

#[test]
fn join_matches_sorted_merge_reference() {
    let len = 768usize;
    let k0: Vec<f64> = data::sorted_keys(len, 0.33, 10)
        .into_iter()
        .map(|k| k as f64)
        .collect();
    let k1: Vec<f64> = data::sorted_keys(len, 0.33, 11)
        .into_iter()
        .map(|k| k as f64)
        .collect();
    let v0 = data::dense_f64(len, 1.0, 5.0, 12);
    let v1 = data::dense_f64(len, 1.0, 5.0, 13);
    let kernel = dsagen::workloads::sparse::join();
    let out = execute(
        &kernel,
        &inputs(&[
            ("key0", k0.clone()),
            ("val0", v0.clone()),
            ("key1", k1.clone()),
            ("val1", v1.clone()),
        ]),
    )
    .unwrap();

    // Reference two-pointer merge. The kernel's values are integers
    // (Opcode::Mul/Add truncate), so truncate in the reference too.
    let (mut i0, mut i1, mut acc) = (0usize, 0usize, 0i64);
    let mut matches = 0;
    while i0 < len && i1 < len {
        if k0[i0] == k1[i1] {
            acc += (v0[i0] as i64).wrapping_mul(v1[i1] as i64);
            matches += 1;
            i0 += 1;
            i1 += 1;
        } else if k0[i0] < k1[i1] {
            i0 += 1;
        } else {
            i1 += 1;
        }
    }
    assert!(matches > 50, "want a meaningful match count, got {matches}");
    assert_eq!(out["out"][0], acc as f64, "join accumulation");
}

#[test]
fn spmv_ellpack_matches_reference() {
    let (rows, width, cols) = (464usize, 4usize, 512usize);
    let vals = data::dense_f64(rows * width, -1.0, 1.0, 20);
    let mut col_idx = Vec::with_capacity(rows * width);
    for r in 0..rows {
        for c in data::sparse_row_cols(width, cols, 21 + r as u64) {
            col_idx.push(f64::from(c));
        }
    }
    let x = data::dense_f64(cols, -1.0, 1.0, 22);
    let kernel = dsagen::workloads::machsuite::spmv_ellpack();
    let out = execute(
        &kernel,
        &inputs(&[
            ("vals", vals.clone()),
            ("cols", col_idx.clone()),
            ("x", x.clone()),
        ]),
    )
    .unwrap();

    let mut expected = vec![0.0; rows];
    for r in 0..rows {
        for j in 0..width {
            expected[r] += vals[r * width + j] * x[col_idx[r * width + j] as usize];
        }
    }
    assert_close(&out["y"], &expected, 1e-9, "spmv-ellpack");
}

#[test]
fn centro_fir_matches_reference() {
    let (n, taps) = (2048usize, 32usize);
    let x = data::dense_f64(n + taps, -1.0, 1.0, 30);
    let coef = data::dense_f64(taps / 2, -1.0, 1.0, 31);
    let kernel = dsagen::workloads::dsp::centro_fir();
    let out = execute(
        &kernel,
        &inputs(&[("x", x.clone()), ("coef", coef.clone())]),
    )
    .unwrap();

    let mut expected = vec![0.0; n];
    for i in 0..n {
        for j in 0..taps / 2 {
            expected[i] += (x[i + j] + x[i + taps - 1 - j]) * coef[j];
        }
    }
    assert_close(&out["y"], &expected, 1e-9, "centro-fir");
}

#[test]
fn classifier_matches_matvec_sigmoid() {
    let (nin, nout) = (256usize, 128usize);
    let x = data::dense_f64(nin, -0.5, 0.5, 40);
    let w = data::dense_f64(nin * nout, -0.2, 0.2, 41);
    let kernel = dsagen::workloads::nn::classifier();
    let out = execute(&kernel, &inputs(&[("x", x.clone()), ("w", w.clone())])).unwrap();

    let mut expected = vec![0.0; nout];
    for o in 0..nout {
        let mut acc = 0.0;
        for i in 0..nin {
            acc += w[o * nin + i] * x[i];
        }
        expected[o] = 1.0 / (1.0 + (-acc).exp());
    }
    assert_close(&out["y"], &expected, 1e-9, "classifier");
}

#[test]
fn pool_matches_max_pooling() {
    let (dim, odim, ch) = (26usize, 13usize, 8usize);
    let input = data::dense_f64(ch * dim * dim, -1.0, 1.0, 50);
    let kernel = dsagen::workloads::nn::pool();
    let out = execute(&kernel, &inputs(&[("input", input.clone())])).unwrap();

    let mut expected = vec![0.0; ch * odim * odim];
    for c in 0..ch {
        for r in 0..odim {
            for q in 0..odim {
                let base = c * dim * dim + 2 * r * dim + 2 * q;
                expected[c * odim * odim + r * odim + q] = input[base]
                    .max(input[base + 1])
                    .max(input[base + dim])
                    .max(input[base + dim + 1]);
            }
        }
    }
    assert_close(&out["output"], &expected, 0.0, "pool");
}

#[test]
fn atax_matches_reference() {
    let n = 32usize;
    let a = data::dense_f64(n * n, -1.0, 1.0, 60);
    let x = data::dense_f64(n, -1.0, 1.0, 61);
    let kernel = dsagen::workloads::polybench::atax();
    let out = execute(&kernel, &inputs(&[("a", a.clone()), ("x", x.clone())])).unwrap();

    let mut expected = vec![0.0; n];
    for i in 0..n {
        let mut tmp = 0.0;
        for j in 0..n {
            tmp += a[i * n + j] * x[j];
        }
        for j in 0..n {
            expected[j] += a[i * n + j] * tmp;
        }
    }
    assert_close(&out["y"], &expected, 1e-9, "atax");
}

#[test]
fn qr_and_cholesky_produce_finite_structured_output() {
    // Full factorization references are out of scope; pin the semantics:
    // spd-ish inputs yield finite outputs with nonzero content.
    let n = 32usize;
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = if i == j {
                8.0
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            };
        }
    }
    for kernel in [
        dsagen::workloads::dsp::qr(),
        dsagen::workloads::dsp::cholesky(),
    ] {
        let out = execute(&kernel, &inputs(&[("a", a.clone())])).unwrap();
        for (name, arr) in &out {
            assert!(
                arr.iter().all(|v| v.is_finite()),
                "{}: {name} has non-finite values",
                kernel.name
            );
        }
        let result = out
            .values()
            .flat_map(|v| v.iter())
            .filter(|v| **v != 0.0)
            .count();
        assert!(result > 0, "{}: all-zero output", kernel.name);
    }
}

#[test]
fn fft_kernel_matches_its_own_reference_loops() {
    // The kernel models repeated butterfly stages; the reference executes
    // the identical arithmetic directly.
    let n = 1usize << 10;
    let half = n / 2;
    let re0 = data::dense_f64(n, -1.0, 1.0, 70);
    let im0 = data::dense_f64(n, -1.0, 1.0, 71);
    let twr = data::dense_f64(half, -1.0, 1.0, 72);
    let twi = data::dense_f64(half, -1.0, 1.0, 73);
    let kernel = dsagen::workloads::dsp::fft();
    let out = execute(
        &kernel,
        &inputs(&[
            ("re", re0.clone()),
            ("im", im0.clone()),
            ("tw_re", twr.clone()),
            ("tw_im", twi.clone()),
        ]),
    )
    .unwrap();

    let (mut re, mut im) = (re0, im0);
    for _stage in 0..10 {
        for b in 0..half {
            let (ar, ai) = (re[2 * b], im[2 * b]);
            let (br, bi) = (re[2 * b + 1], im[2 * b + 1]);
            let tr = br * twr[b] - bi * twi[b];
            let ti = br * twi[b] + bi * twr[b];
            re[2 * b] = ar + tr;
            im[2 * b] = ai + ti;
            re[2 * b + 1] = ar - tr;
            im[2 * b + 1] = ai - ti;
        }
    }
    assert_close(&out["re"], &re, 1e-9, "fft re");
    assert_close(&out["im"], &im, 1e-9, "fft im");
}

#[test]
fn md_matches_lennard_jones_reference() {
    let (atoms, neighbors) = (128usize, 16usize);
    let px = data::dense_f64(atoms, -4.0, 4.0, 80);
    let py = data::dense_f64(atoms, -4.0, 4.0, 81);
    let pz = data::dense_f64(atoms, -4.0, 4.0, 82);
    // Neighbor list: any indices except self (self would divide by zero).
    let mut nl = Vec::with_capacity(atoms * neighbors);
    for i in 0..atoms {
        for j in 0..neighbors {
            nl.push(((i + j + 1) % atoms) as f64);
        }
    }
    let kernel = dsagen::workloads::machsuite::md();
    let out = execute(
        &kernel,
        &inputs(&[
            ("pos_x", px.clone()),
            ("pos_y", py.clone()),
            ("pos_z", pz.clone()),
            ("neigh", nl.clone()),
        ]),
    )
    .unwrap();

    // Reference: the exact arithmetic of the kernel (LJ-flavored).
    let mut fx = vec![0.0; atoms];
    let mut fy = vec![0.0; atoms];
    let mut fz = vec![0.0; atoms];
    for i in 0..atoms {
        for j in 0..neighbors {
            let n = nl[i * neighbors + j] as usize;
            let (dx, dy, dz) = (px[i] - px[n], py[i] - py[n], pz[i] - pz[n]);
            let r2 = dx * dx + dy * dy + dz * dz;
            let r2inv = 1.0 / r2;
            let r6 = r2inv * r2inv * r2inv;
            let force = r6 * (r6 - 0.0) * r2inv;
            fx[i] += force * dx;
            fy[i] += force * dy;
            fz[i] += force * dz;
        }
    }
    assert_close(&out["force_x"], &fx, 1e-9, "md fx");
    assert_close(&out["force_y"], &fy, 1e-9, "md fy");
    assert_close(&out["force_z"], &fz, 1e-9, "md fz");
}

#[test]
fn mm2_and_mm3_match_chained_matmuls() {
    let n = 32usize;
    let matmul = |x: &[f64], y: &[f64]| {
        let mut out = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    out[i * n + j] += x[i * n + k] * y[k * n + j];
                }
            }
        }
        out
    };
    let a = data::dense_f64(n * n, -1.0, 1.0, 90);
    let b = data::dense_f64(n * n, -1.0, 1.0, 91);
    let c = data::dense_f64(n * n, -1.0, 1.0, 92);
    let d = data::dense_f64(n * n, -1.0, 1.0, 93);

    let out2 = execute(
        &dsagen::workloads::polybench::mm2(),
        &inputs(&[("a", a.clone()), ("b", b.clone()), ("c", c.clone())]),
    )
    .unwrap();
    assert_close(&out2["d"], &matmul(&matmul(&a, &b), &c), 1e-9, "2mm");

    let out3 = execute(
        &dsagen::workloads::polybench::mm3(),
        &inputs(&[
            ("a", a.clone()),
            ("b", b.clone()),
            ("c", c.clone()),
            ("d", d.clone()),
        ]),
    )
    .unwrap();
    assert_close(
        &out3["g"],
        &matmul(&matmul(&a, &b), &matmul(&c, &d)),
        1e-9,
        "3mm",
    );
}

#[test]
fn mvt_and_bicg_match_references() {
    let n = 32usize;
    let a = data::dense_f64(n * n, -1.0, 1.0, 94);
    let y1 = data::dense_f64(n, -1.0, 1.0, 95);
    let y2 = data::dense_f64(n, -1.0, 1.0, 96);

    let out = execute(
        &dsagen::workloads::polybench::mvt(),
        &inputs(&[("a", a.clone()), ("y1", y1.clone()), ("y2", y2.clone())]),
    )
    .unwrap();
    let mut x1 = vec![0.0; n];
    let mut x2 = vec![0.0; n];
    for i in 0..n {
        for j in 0..n {
            x1[i] += a[i * n + j] * y1[j];
            x2[i] += a[j * n + i] * y2[j];
        }
    }
    assert_close(&out["x1"], &x1, 1e-9, "mvt x1");
    assert_close(&out["x2"], &x2, 1e-9, "mvt x2");

    let r = data::dense_f64(n, -1.0, 1.0, 97);
    let p = data::dense_f64(n, -1.0, 1.0, 98);
    let out = execute(
        &dsagen::workloads::polybench::bicg(),
        &inputs(&[("a", a.clone()), ("r", r.clone()), ("p", p.clone())]),
    )
    .unwrap();
    let mut s = vec![0.0; n];
    let mut q = vec![0.0; n];
    for i in 0..n {
        for j in 0..n {
            s[j] += a[i * n + j] * r[i];
            q[i] += a[i * n + j] * p[j];
        }
    }
    assert_close(&out["s"], &s, 1e-9, "bicg s");
    assert_close(&out["q"], &q, 1e-9, "bicg q");
}

#[test]
fn conv_matches_direct_convolution() {
    let (dim, odim, ch) = (28usize, 26usize, 8usize);
    let input = data::dense_f64(dim * dim, -1.0, 1.0, 100);
    let weights = data::dense_f64(ch * 9, -1.0, 1.0, 101);
    let kernel = dsagen::workloads::nn::conv();
    let out = execute(
        &kernel,
        &inputs(&[("input", input.clone()), ("weights", weights.clone())]),
    )
    .unwrap();

    let mut expected = vec![0.0; ch * odim * odim];
    for oc in 0..ch {
        for r in 0..odim {
            for c in 0..odim {
                let mut acc = 0.0;
                for dr in 0..3 {
                    for dc in 0..3 {
                        acc += input[(r + dr) * dim + (c + dc)] * weights[oc * 9 + dr * 3 + dc];
                    }
                }
                expected[oc * odim * odim + r * odim + c] = acc;
            }
        }
    }
    assert_close(&out["output"], &expected, 1e-9, "conv");
}

#[test]
fn spmv_crs_matches_reference() {
    // The kernel models CRS with a fixed average row length of 4.
    let (rows, avg) = (464usize, 4usize);
    let vals = data::dense_f64(rows * avg, -1.0, 1.0, 110);
    let mut cols = Vec::with_capacity(rows * avg);
    for r in 0..rows {
        for c in data::sparse_row_cols(avg, 512, 111 + r as u64) {
            cols.push(f64::from(c));
        }
    }
    let x = data::dense_f64(512, -1.0, 1.0, 112);
    let kernel = dsagen::workloads::machsuite::spmv_crs();
    let out = execute(
        &kernel,
        &inputs(&[
            ("vals", vals.clone()),
            ("cols", cols.clone()),
            ("x", x.clone()),
        ]),
    )
    .unwrap();

    let mut expected = vec![0.0; rows];
    for r in 0..rows {
        for j in 0..avg {
            expected[r] += vals[r * avg + j] * x[cols[r * avg + j] as usize];
        }
    }
    assert_close(&out["y"], &expected, 1e-9, "spmv-crs");
}
