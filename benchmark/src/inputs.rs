//! Seeded input generators. Everything the program under test sees is made
//! here from `--seed`: scheduler and DSE seeds, kernel input arrays, the
//! service request stream and the fault schedules. The same seed gives the
//! same inputs, which [`Digest`] makes checkable.

use std::collections::BTreeMap;

use dsagen::dfg::Kernel;
use dsagen::faults::{FaultLifetime, FaultSchedule, RUNTIME_KINDS};
use dsagen::workloads::data;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// FNV-1a over 64-bit words: the digest of generated inputs and of
/// deterministic outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn new() -> Self {
        Digest::default()
    }

    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn push_f64(&mut self, x: f64) {
        self.push(x.to_bits());
    }

    pub fn push_str(&mut self, s: &str) {
        for byte in s.bytes() {
            self.push(u64::from(byte));
        }
    }
}

/// An independent generator per purpose, so adding draws to one stream
/// never shifts another.
pub fn rng(seed: u64, purpose: &str) -> StdRng {
    let mut d = Digest::new();
    d.push(seed);
    d.push_str(purpose);
    StdRng::seed_from_u64(d.0)
}

/// The `index`-th seed of the stream named `purpose`.
pub fn sub_seed(seed: u64, purpose: &str, index: u64) -> u64 {
    let mut d = Digest::new();
    d.push(seed);
    d.push_str(purpose);
    d.push(index);
    StdRng::seed_from_u64(d.0).next_u64()
}

/// Input arrays for one Table-I kernel. Arrays used as indices must hold
/// valid indices (neighbour lists, sparse columns, histogram bins, sorted
/// join keys); the decompositions need a well-conditioned matrix; every
/// other array the kernel declares is dense seeded data.
pub fn kernel_inputs(kernel: &Kernel, seed: u64) -> BTreeMap<String, Vec<f64>> {
    let s = |array: &str| sub_seed(seed, &format!("{}.{array}", kernel.name), 0);
    let as_f64 = |v: Vec<u32>| v.into_iter().map(f64::from).collect::<Vec<f64>>();
    let mut out = BTreeMap::new();
    for decl in &kernel.arrays {
        let len = decl.len as usize;
        let values = match (kernel.name.as_str(), decl.name.as_str()) {
            ("md", "neigh") => {
                // 16 neighbours per atom, never the atom itself.
                let atoms = len / 16;
                let mut r = rng(seed, "md.neigh");
                (0..len)
                    .map(|i| ((i / 16 + 1 + r.gen_range(0..atoms - 1)) % atoms) as f64)
                    .collect()
            }
            ("md", "pos_x" | "pos_y" | "pos_z") => data::dense_f64(len, -4.0, 4.0, s(&decl.name)),
            ("spmv-crs" | "spmv-ellpack", "cols") => {
                let width = 4;
                let x_len = kernel
                    .arrays
                    .iter()
                    .find(|a| a.name == "x")
                    .map_or(512, |a| a.len);
                (0..len / width)
                    .flat_map(|row| {
                        as_f64(data::sparse_row_cols(
                            width,
                            x_len as usize,
                            sub_seed(seed, "spmv.cols", row as u64),
                        ))
                    })
                    .collect()
            }
            ("histogram", "samples") => {
                let bins = kernel
                    .arrays
                    .iter()
                    .find(|a| a.name == "hist")
                    .map_or(1024, |a| a.len);
                as_f64(data::histogram_samples(len, bins as usize, s("samples")))
            }
            ("join", "key0" | "key1") => data::sorted_keys(len, 0.33, s(&decl.name))
                .into_iter()
                .map(|k| k as f64)
                .collect(),
            ("join", "val0" | "val1") => data::dense_f64(len, 1.0, 5.0, s(&decl.name)),
            ("sparse-cnn", "idx_a" | "idx_b") => {
                as_f64(data::sparse_row_cols(len, 4096, s(&decl.name)))
            }
            ("qr" | "cholesky", "a") => {
                // Diagonally dominant, symmetric: both factorizations exist.
                let n = (len as f64).sqrt() as usize;
                let jitter = data::dense_f64(n, 0.0, 1.0, s("a"));
                (0..len)
                    .map(|at| {
                        let (i, j) = (at / n, at % n);
                        if i == j {
                            8.0 + jitter[i]
                        } else {
                            1.0 / (1.0 + (i as f64 - j as f64).abs())
                        }
                    })
                    .collect()
            }
            _ => data::dense_f64(len, -1.0, 1.0, s(&decl.name)),
        };
        out.insert(decl.name.clone(), values);
    }
    out
}

/// The one Table-I kernel the reference interpreter cannot run: as written
/// it stores to `dst[16384]` of 16384 elements, whatever the data. It has no
/// reference output, so it stays out of the functionally checked workload;
/// the unit test notices when the repository fixes it.
pub const REFERENCE_TRAPS: &str = "stencil-3d";

/// One request of the service stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index into the workload's kernel list.
    pub kernel: usize,
    /// The request's DSE seed.
    pub dse_seed: u64,
    /// Whether the set-up fill ran this exact request (a warm one).
    pub seen: bool,
}

/// The requests the set-up fill runs: `seeds_per_kernel` per kernel.
pub fn seen_requests(seed: u64, kernels: usize, seeds_per_kernel: u64) -> Vec<Request> {
    (0..kernels)
        .flat_map(|kernel| {
            (0..seeds_per_kernel).map(move |i| Request {
                kernel,
                dse_seed: sub_seed(seed, "service.seen", kernel as u64 * seeds_per_kernel + i),
                seen: true,
            })
        })
        .collect()
}

/// The timed request stream: `n` requests, 70% seen (warm) and 30% with
/// seeds the store has never met (cold), in seeded order. Both classes
/// cycle through the kernels evenly instead of drawing them at random: a
/// cold `md` costs twenty cold `mm`s, so a random draw would move the
/// stream's total work by more than any change under test.
pub fn request_stream(seed: u64, n: usize, seen: &[Request], kernels: usize) -> Vec<Request> {
    let cold = (n * 3).div_ceil(10);
    let mut r = rng(seed, "service.stream");
    let mut warm_order: Vec<Request> = seen.to_vec();
    warm_order.shuffle(&mut r);
    let mut kernel_order: Vec<usize> = (0..kernels).collect();
    kernel_order.shuffle(&mut r);
    let mut stream: Vec<Request> = (0..n - cold)
        .map(|i| warm_order[i % warm_order.len()])
        .chain((0..cold).map(|i| Request {
            kernel: kernel_order[i % kernels],
            dse_seed: sub_seed(seed, "service.unseen", i as u64),
            seen: false,
        }))
        .collect();
    stream.shuffle(&mut r);
    stream
}

pub fn stream_digest(stream: &[Request]) -> u64 {
    let mut d = Digest::new();
    for req in stream {
        d.push(req.kernel as u64);
        d.push(req.dse_seed);
        d.push(u64::from(req.seen));
    }
    d.0
}

/// Outage length of the transient fault: above the watchdog bound, so it is
/// always detected, and short enough to clear before the longer runs end.
pub const TRANSIENT_CYCLES: u64 = 4096;

/// The two fault schedules one fixture meets in one round: a transient
/// dead PE and a permanent fault of a drawn runtime kind, both arriving
/// between a quarter and a half of the fault-free run.
pub fn fault_schedules(seed: u64, fixture: usize, round: u64, cycles: u64) -> [FaultSchedule; 2] {
    let mut r = rng(seed, &format!("fabric.faults.{fixture}.{round}"));
    let window = (cycles / 4).max(1)..(cycles / 2).max(2);
    let transient = FaultSchedule::new(r.next_u64()).with(
        r.gen_range(window.clone()),
        FaultLifetime::Transient {
            duration: TRANSIENT_CYCLES,
        },
        dsagen::faults::FaultKind::DeadPe,
    );
    let kind = RUNTIME_KINDS[r.gen_range(0..RUNTIME_KINDS.len())];
    let permanent =
        FaultSchedule::new(r.next_u64()).with(r.gen_range(window), FaultLifetime::Permanent, kind);
    [transient, permanent]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let seen = seen_requests(7, 20, 2);
        let a = request_stream(7, 200, &seen, 20);
        assert_eq!(
            stream_digest(&a),
            stream_digest(&request_stream(7, 200, &seen, 20))
        );
        let seen8 = seen_requests(8, 20, 2);
        assert_ne!(
            stream_digest(&a),
            stream_digest(&request_stream(8, 200, &seen8, 20))
        );
    }

    #[test]
    fn stream_is_seventy_thirty_and_cold_seeds_are_unseen() {
        let seen = seen_requests(3, 20, 2);
        let stream = request_stream(3, 200, &seen, 20);
        assert_eq!(stream.len(), 200);
        assert_eq!(stream.iter().filter(|r| !r.seen).count(), 60);
        for req in stream.iter().filter(|r| !r.seen) {
            assert!(seen.iter().all(|s| s.dse_seed != req.dse_seed));
        }
        for req in stream.iter().filter(|r| r.seen) {
            assert!(seen.contains(req));
        }
    }

    #[test]
    fn every_kernel_runs_on_its_generated_inputs() {
        for w in dsagen::workloads::all() {
            let inputs = kernel_inputs(&w.kernel, 11);
            assert_eq!(inputs, kernel_inputs(&w.kernel, 11), "{}", w.kernel.name);
            let ran = dsagen::dfg::interp::execute(&w.kernel, &inputs);
            assert_eq!(
                ran.is_ok(),
                w.kernel.name != REFERENCE_TRAPS,
                "{}: {:?}",
                w.kernel.name,
                ran.err()
            );
        }
    }

    #[test]
    fn fault_schedules_repeat_and_arrive_mid_run() {
        let a = fault_schedules(5, 3, 1, 10_000);
        let b = fault_schedules(5, 3, 1, 10_000);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        for s in &a {
            let at = s.first_arrival().expect("one fault");
            assert!((2500..5000).contains(&at), "arrival {at}");
        }
        assert_ne!(
            format!("{a:?}"),
            format!("{:?}", fault_schedules(5, 3, 2, 10_000))
        );
    }
}
