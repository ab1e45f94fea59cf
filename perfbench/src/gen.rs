//! Seeded job inputs and the benchmark's own host references.
//!
//! The programs come from `dta-workloads`, but every input word a timed
//! job sees is generated here from the command-line seed and written
//! over the program's named input globals; the expected outputs are
//! computed here too, never taken from the workloads crate.

use dta_core::GlobalRead;
use dta_isa::Program;
use dta_workloads::{bitcnt, gather, mmul, zoom};

/// SplitMix64. Independent of the workloads' built-in xorshift data, so
/// seeded inputs differ from the programs' own inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`: each job, catalogue entry or
    /// schedule draws from its own stream, so adding draws to one never
    /// shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` words, each masked with `mask`.
    fn words(&mut self, n: usize, mask: u32) -> Vec<i32> {
        (0..n)
            .map(|_| (self.next_u64() as u32 & mask) as i32)
            .collect()
    }
}

/// A workload program family the benchmark can feed and check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Bitcnt(usize),
    Mmul(usize),
    /// No timed workload runs gather since `gather-wide` was dropped
    /// (NOTES.md); its generator and reference stay tested.
    #[cfg_attr(not(test), allow(dead_code))]
    Gather(usize),
    Zoom(usize),
}

/// Named global words: a job's inputs, or its expected outputs.
pub type Globals = Vec<(&'static str, Vec<i32>)>;

impl Kernel {
    pub fn name(self) -> String {
        match self {
            Kernel::Bitcnt(n) => format!("bitcnt({n})"),
            Kernel::Mmul(n) => format!("mmul({n})"),
            Kernel::Gather(n) => format!("gather({n})"),
            Kernel::Zoom(n) => format!("zoom({n})"),
        }
    }

    /// Builds one variant of the program (inputs still the built-in ones).
    pub fn build(self, variant: dta_workloads::Variant) -> dta_workloads::WorkloadProgram {
        match self {
            Kernel::Bitcnt(n) => bitcnt::build(n, variant),
            Kernel::Mmul(n) => mmul::build(n, variant),
            Kernel::Gather(n) => gather::build(n, variant),
            Kernel::Zoom(n) => zoom::build(n, variant),
        }
    }

    /// Seeded inputs, each inside its domain: bitcnt samples with the
    /// padding past `n` kept zero (weights stay the program's own),
    /// mmul elements at most `0xFFF`, gather indices masked to `n - 1`
    /// with data small enough that per-worker sums fit an `i32`, and
    /// 8-bit zoom pixels with the replicated right-hand column.
    pub fn inputs(self, rng: &mut Rng) -> Globals {
        match self {
            Kernel::Bitcnt(n) => bitcnt_inputs(n, rng.words(n, u32::MAX)),
            Kernel::Mmul(n) => vec![
                ("A", rng.words(n * n, 0xFFF)),
                ("B", rng.words(n * n, 0xFFF)),
            ],
            Kernel::Gather(n) => vec![
                ("IDX", rng.words(n, n as u32 - 1)),
                ("D", rng.words(n, 0x7FFF)),
            ],
            Kernel::Zoom(n) => {
                let mut img = rng.words(n * (n + 1), 0xFF);
                for row in img.chunks_mut(n + 1) {
                    row[n] = row[n - 1];
                }
                vec![("SRC", img)]
            }
        }
    }

    /// The built-in inputs of the workloads crate, in [`Kernel::inputs`]
    /// form (used to check the references against the crate's own).
    pub fn builtin_inputs(self) -> Globals {
        match self {
            Kernel::Bitcnt(n) => bitcnt_inputs(n, bitcnt::samples(n)),
            Kernel::Mmul(n) => vec![("A", mmul::input_a(n)), ("B", mmul::input_b(n))],
            Kernel::Gather(n) => vec![("IDX", gather::indices(n)), ("D", gather::input(n))],
            Kernel::Zoom(n) => vec![("SRC", zoom::input_image(n))],
        }
    }

    /// Expected output globals for `inputs`, computed on the host.
    pub fn reference(self, inputs: &Globals) -> Globals {
        let input = |name: &str| -> &[i32] {
            &inputs
                .iter()
                .find(|(n, _)| *n == name)
                .expect("inputs come from Kernel::inputs")
                .1
        };
        match self {
            Kernel::Bitcnt(_) => {
                let total = input("SAMPLES")
                    .iter()
                    .zip(input("WEIGHTS"))
                    .map(|(&x, &w)| (x as u32).count_ones() as i32 * w)
                    .fold(0i32, i32::wrapping_add);
                vec![("TOTAL", vec![total])]
            }
            Kernel::Mmul(n) => {
                let (a, b) = (input("A"), input("B"));
                let mut c = vec![0i32; n * n];
                for i in 0..n {
                    for j in 0..n {
                        let acc: i64 = (0..n)
                            .map(|k| a[i * n + k] as i64 * b[k * n + j] as i64)
                            .sum();
                        c[i * n + j] = acc as i32;
                    }
                }
                vec![("C", c)]
            }
            Kernel::Gather(n) => {
                let (idx, d) = (input("IDX"), input("D"));
                let chunk = n / gather::WORKERS;
                let sums = idx
                    .chunks(chunk)
                    .map(|c| c.iter().map(|&i| d[i as usize]).sum())
                    .collect();
                vec![("S", sums)]
            }
            Kernel::Zoom(n) => {
                let (src, f) = (input("SRC"), zoom::FACTOR);
                let on = f * n;
                let mut out = vec![0i32; on * on];
                for y in 0..on {
                    let row = &src[(y / f) * (n + 1)..][..n + 1];
                    for xi in 0..n {
                        for k in 0..f {
                            let (a, b) = (row[xi], row[xi + 1]);
                            out[y * on + xi * f + k] =
                                (a * (f - k) as i32 + b * k as i32) / f as i32;
                        }
                    }
                }
                vec![("OUT", out)]
            }
        }
    }
}

/// bitcnt's inputs: `n` samples padded with zeros to whole waves, and
/// the program's own weights (padding weighted 1, as the program does).
fn bitcnt_inputs(n: usize, mut samples: Vec<i32>) -> Globals {
    let padded = n.div_ceil(bitcnt::WAVE_SAMPLES) * bitcnt::WAVE_SAMPLES;
    samples.resize(padded, 0);
    let mut weights = bitcnt::weights(n);
    weights.resize(padded, 1);
    vec![("SAMPLES", samples), ("WEIGHTS", weights)]
}

/// Overwrites the named input globals of `program` with `inputs`. Sizes
/// must match exactly: the program's address layout is fixed at build.
pub fn install(program: &mut Program, inputs: &Globals) -> Result<(), String> {
    for (name, words) in inputs {
        let g = program
            .globals
            .iter_mut()
            .find(|g| g.name == *name)
            .ok_or_else(|| format!("program has no global {name}"))?;
        if g.data.len() != words.len() * 4 {
            return Err(format!(
                "global {name} holds {} bytes, inputs give {}",
                g.data.len(),
                words.len() * 4
            ));
        }
        g.data = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    }
    Ok(())
}

/// Compares every expected output word with what the run left behind.
pub fn check(out: &dyn GlobalRead, expected: &Globals) -> Result<(), String> {
    for (name, words) in expected {
        for (i, &want) in words.iter().enumerate() {
            match out.read_global_word(name, i) {
                Some(got) if got == want => {}
                got => return Err(format!("{name}[{i}] = {got:?}, expected {want}")),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: [Kernel; 4] = [
        Kernel::Bitcnt(100),
        Kernel::Mmul(8),
        Kernel::Gather(64),
        Kernel::Zoom(8),
    ];

    #[test]
    fn generators_are_deterministic_per_seed_and_change_with_it() {
        for k in KERNELS {
            let a = k.inputs(&mut Rng::new(7, 3));
            assert_eq!(a, k.inputs(&mut Rng::new(7, 3)), "{k:?}");
            assert_ne!(a, k.inputs(&mut Rng::new(8, 3)), "{k:?} ignores the seed");
            assert_ne!(a, k.inputs(&mut Rng::new(7, 4)), "{k:?} ignores the stream");
        }
    }

    #[test]
    fn generators_respect_input_domains() {
        let mut rng = Rng::new(1, 1);
        let g = Kernel::Bitcnt(100).inputs(&mut rng);
        assert!(g[0].1[100..].iter().all(|&s| s == 0), "bitcnt padding");
        let g = Kernel::Mmul(8).inputs(&mut rng);
        assert!(g
            .iter()
            .all(|(_, w)| w.iter().all(|&e| (0..=0xFFF).contains(&e))));
        let g = Kernel::Gather(64).inputs(&mut rng);
        assert!(g[0].1.iter().all(|&i| (0..64).contains(&i)));
        let g = Kernel::Zoom(8).inputs(&mut rng);
        assert!(g[0].1.iter().all(|&p| (0..=0xFF).contains(&p)));
        assert!(g[0].1.chunks(9).all(|row| row[8] == row[7]));
    }

    #[test]
    fn references_match_the_workloads_on_builtin_inputs() {
        let total = |k: Kernel| k.reference(&k.builtin_inputs()).remove(0).1;
        assert_eq!(
            total(Kernel::Bitcnt(100)),
            vec![bitcnt::expected(100) as i32]
        );
        assert_eq!(
            total(Kernel::Bitcnt(10_000)),
            vec![bitcnt::expected(10_000) as i32]
        );
        assert_eq!(total(Kernel::Mmul(32)), mmul::expected(32));
        assert_eq!(total(Kernel::Gather(16_384)), gather::expected(16_384));
        assert_eq!(total(Kernel::Zoom(16)), zoom::expected(16));
    }

    #[test]
    fn installed_inputs_run_and_verify() {
        use dta_core::{run_job, SimJob, SystemConfig};
        use std::sync::Arc;
        for k in KERNELS {
            let mut wp = k.build(dta_workloads::Variant::AutoPrefetch);
            let inputs = k.inputs(&mut Rng::new(42, 0));
            install(&mut wp.program, &inputs).unwrap();
            let job = SimJob::new(Arc::new(wp.program), wp.args, SystemConfig::with_pes(4));
            let out = run_job(&job).outcome.expect("job runs");
            check(&out.globals, &k.reference(&inputs)).unwrap_or_else(|e| panic!("{k:?}: {e}"));
        }
    }

    #[test]
    fn install_rejects_unknown_and_resized_globals() {
        let mut p = Kernel::Mmul(8)
            .build(dta_workloads::Variant::Baseline)
            .program;
        assert!(install(&mut p, &vec![("NOPE", vec![0])]).is_err());
        assert!(install(&mut p, &vec![("A", vec![0; 3])]).is_err());
    }
}
