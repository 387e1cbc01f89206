//! # hsm-workloads — the paper's benchmark suite as pthread C sources
//!
//! §5.2: "a set of common, albeit comparatively simple, parallel programs
//! have been written in Pthreads and converted to RCCE using the analytic
//! parser and translator utility". Three categories:
//!
//! * **linear algebra** — Dot Product, LU Decomposition;
//! * **approximation / number theory** — Pi Approximation, Count Primes,
//!   3-5-Sum;
//! * **memory operations** — Stream (add/copy/scale/triad, Algorithms
//!   13–16).
//!
//! Each generator emits a self-contained pthread program following the
//! paper's structure: globals for shared data, a worker that partitions by
//! thread id, `wtime()` timestamps just before launching threads and just
//! after the last join (§5.2's measurement protocol), and per-thread result
//! lines printed inside the join loop (as in Example Code 4.1) so the
//! translated program produces the same output multiset.
//!
//! LU Decomposition is realized as a *batch* of independent dense LU
//! factorizations whose combined footprint deliberately exceeds the MPB —
//! reproducing the paper's observation that "the matrix within that
//! program does not fit into the on-chip shared memory".
//!
//! [`reference_exit`] computes each benchmark's expected exit code with
//! the exact same operation order in Rust, so tests can check that both
//! execution modes compute correct results.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::fmt;

/// The six benchmarks of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bench {
    /// Count primes below a limit (Algorithm 11), block-partitioned — the
    /// inherent imbalance reproduces its sub-linear Figure 6.1 speedup.
    CountPrimes,
    /// Riemann-sum approximation of π (Algorithm 12).
    PiApprox,
    /// Sum of multiples of 3 and 5 below a limit.
    Sum35,
    /// Dot product of two large vectors.
    DotProduct,
    /// Batch LU decomposition (footprint exceeds the MPB).
    LuDecomp,
    /// The Stream memory benchmark: copy, scale, add, triad.
    Stream,
}

impl Bench {
    /// All benchmarks in the paper's Figure 6.1 order.
    pub fn all() -> [Bench; 6] {
        [
            Bench::PiApprox,
            Bench::Sum35,
            Bench::CountPrimes,
            Bench::Stream,
            Bench::DotProduct,
            Bench::LuDecomp,
        ]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Bench::CountPrimes => "Count Primes",
            Bench::PiApprox => "Pi Approximation",
            Bench::Sum35 => "3-5-Sum",
            Bench::DotProduct => "Dot Product",
            Bench::LuDecomp => "LU Decomposition",
            Bench::Stream => "Stream",
        }
    }

    /// Default problem parameters for `threads` execution units, sized so
    /// the full evaluation grid simulates in seconds while preserving the
    /// paper's compute/memory balance per benchmark.
    pub fn default_params(self, threads: usize) -> Params {
        let (size, reps) = match self {
            Bench::CountPrimes => (6_000, 1),
            Bench::PiApprox => (400_000, 1),
            Bench::Sum35 => (1_000_000, 1),
            // Two 16K-double vectors (256 KB): thrash one core's L2 in
            // the baseline, fit the 384 KB MPB after conversion.
            Bench::DotProduct => (16_384, 3),
            // 64 matrices of 30x30 doubles = 460 KB: exceeds the MPB, as
            // the paper observes for LU.
            Bench::LuDecomp => (30, 64),
            // Three 12K-double arrays (288 KB): exceed the 256 KB L2, fit
            // the MPB.
            Bench::Stream => (12_288, 2),
        };
        Params {
            threads,
            size,
            reps,
        }
    }
}

impl fmt::Display for Bench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Problem parameters for one benchmark instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Thread count (= core count after translation).
    pub threads: usize,
    /// Primary problem size (limit, steps, vector length, matrix order).
    pub size: usize,
    /// Repetitions (Stream kernels) or batch count (LU).
    pub reps: usize,
}

/// Generates the pthread C source for a benchmark instance.
pub fn source(bench: Bench, p: &Params) -> String {
    match bench {
        Bench::CountPrimes => count_primes_src(p),
        Bench::PiApprox => pi_src(p),
        Bench::Sum35 => sum35_src(p),
        Bench::DotProduct => dot_src(p),
        Bench::LuDecomp => lu_src(p),
        Bench::Stream => stream_src(p),
    }
}

// --------------------------------------------------------------- sources --

fn count_primes_src(p: &Params) -> String {
    let nt = p.threads;
    let limit = p.size;
    format!(
        r#"
#include <stdio.h>
#include <pthread.h>

int counts[{nt}];

void *tf(void *tid) {{
    int id = (int)tid;
    int chunk = ({limit} - 2) / {nt};
    int lo = 2 + id * chunk;
    int hi = lo + chunk;
    if (id == {nt} - 1) hi = {limit};
    int total = 0;
    int i;
    for (i = lo; i < hi; i++) {{
        int prime = 1;
        int j;
        for (j = 2; j < i; j++) {{
            if (i % j == 0) {{ prime = 0; break; }}
        }}
        total = total + prime;
    }}
    counts[id] = total;
    pthread_exit(NULL);
}}

int main() {{
    pthread_t threads[{nt}];
    int t;
    double t0 = wtime();
    for (t = 0; t < {nt}; t++) {{
        pthread_create(&threads[t], NULL, tf, (void *)t);
    }}
    for (t = 0; t < {nt}; t++) {{
        pthread_join(threads[t], NULL);
        printf("primes %d %d\n", t, counts[t]);
    }}
    double t1 = wtime();
    int total = 0;
    for (t = 0; t < {nt}; t++) total += counts[t];
    return total;
}}
"#
    )
}

fn pi_src(p: &Params) -> String {
    let nt = p.threads;
    let steps = p.size;
    format!(
        r#"
#include <stdio.h>
#include <pthread.h>

double partial[{nt}];

void *tf(void *tid) {{
    int id = (int)tid;
    int chunk = {steps} / {nt};
    int lo = id * chunk;
    int hi = lo + chunk;
    if (id == {nt} - 1) hi = {steps};
    double step = 1.0 / {steps};
    double sum = 0.0;
    int i;
    for (i = lo; i < hi; i++) {{
        double x = (i + 0.5) * step;
        sum = sum + 4.0 / (1.0 + x * x);
    }}
    partial[id] = sum;
    pthread_exit(NULL);
}}

int main() {{
    pthread_t threads[{nt}];
    int t;
    double t0 = wtime();
    for (t = 0; t < {nt}; t++) {{
        pthread_create(&threads[t], NULL, tf, (void *)t);
    }}
    for (t = 0; t < {nt}; t++) {{
        pthread_join(threads[t], NULL);
    }}
    double t1 = wtime();
    double pi = 0.0;
    for (t = 0; t < {nt}; t++) pi += partial[t];
    pi = pi / {steps};
    printf("pi %.6f\n", pi);
    return (int)(pi * 1000000.0);
}}
"#
    )
}

fn sum35_src(p: &Params) -> String {
    let nt = p.threads;
    let limit = p.size;
    format!(
        r#"
#include <stdio.h>
#include <pthread.h>

long partial[{nt}];

void *tf(void *tid) {{
    int id = (int)tid;
    long chunk = {limit} / {nt};
    long lo = id * chunk;
    long hi = lo + chunk;
    if (id == {nt} - 1) hi = {limit};
    long sum = 0;
    long i;
    for (i = lo; i < hi; i++) {{
        if (i % 3 == 0 || i % 5 == 0) sum = sum + i;
    }}
    partial[id] = sum;
    pthread_exit(NULL);
}}

int main() {{
    pthread_t threads[{nt}];
    int t;
    double t0 = wtime();
    for (t = 0; t < {nt}; t++) {{
        pthread_create(&threads[t], NULL, tf, (void *)t);
    }}
    for (t = 0; t < {nt}; t++) {{
        pthread_join(threads[t], NULL);
    }}
    double t1 = wtime();
    long total = 0;
    for (t = 0; t < {nt}; t++) total += partial[t];
    printf("sum35 %ld\n", total);
    return (int)(total % 1000000007);
}}
"#
    )
}

fn dot_src(p: &Params) -> String {
    let nt = p.threads;
    let n = p.size;
    let reps = p.reps;
    format!(
        r#"
#include <stdio.h>
#include <pthread.h>

double a[{n}];
double b[{n}];
double partial[{nt}];

void *tf(void *tid) {{
    int id = (int)tid;
    int chunk = {n} / {nt};
    int lo = id * chunk;
    int hi = lo + chunk;
    if (id == {nt} - 1) hi = {n};
    double sum = 0.0;
    int r;
    int i;
    for (r = 0; r < {reps}; r++) {{
        for (i = lo; i < hi; i++) {{
            sum = sum + a[i] * b[i];
        }}
    }}
    partial[id] = sum;
    pthread_exit(NULL);
}}

int main() {{
    pthread_t threads[{nt}];
    int t;
    int i;
    for (i = 0; i < {n}; i++) {{
        a[i] = (i % 10) * 0.5;
        b[i] = ((i + 3) % 7) * 0.25;
    }}
    double t0 = wtime();
    for (t = 0; t < {nt}; t++) {{
        pthread_create(&threads[t], NULL, tf, (void *)t);
    }}
    for (t = 0; t < {nt}; t++) {{
        pthread_join(threads[t], NULL);
    }}
    double t1 = wtime();
    double total = 0.0;
    for (t = 0; t < {nt}; t++) total += partial[t];
    printf("dot %.3f\n", total);
    return (int)(total / {reps});
}}
"#
    )
}

fn lu_src(p: &Params) -> String {
    let nt = p.threads;
    let n = p.size; // matrix order
    let batch = p.reps; // number of matrices
    let total = n * n * batch;
    format!(
        r#"
#include <stdio.h>
#include <pthread.h>

double mats[{total}];
double checks[{nt}];

void *tf(void *tid) {{
    int id = (int)tid;
    int per = {batch} / {nt};
    int lo = id * per;
    int hi = lo + per;
    if (id == {nt} - 1) hi = {batch};
    double check = 0.0;
    int m;
    for (m = lo; m < hi; m++) {{
        int base = m * {n} * {n};
        int k;
        for (k = 0; k < {n}; k++) {{
            int i;
            for (i = k + 1; i < {n}; i++) {{
                double factor = mats[base + i * {n} + k] / mats[base + k * {n} + k];
                mats[base + i * {n} + k] = factor;
                int j;
                for (j = k + 1; j < {n}; j++) {{
                    mats[base + i * {n} + j] = mats[base + i * {n} + j] - factor * mats[base + k * {n} + j];
                }}
            }}
        }}
        for (k = 0; k < {n}; k++) {{
            check = check + mats[base + k * {n} + k];
        }}
    }}
    checks[id] = check;
    pthread_exit(NULL);
}}

int main() {{
    pthread_t threads[{nt}];
    int t;
    int i;
    for (i = 0; i < {total}; i++) {{
        int row = (i / {n}) % {n};
        int col = i % {n};
        mats[i] = ((i % 13) + 1) * 0.125;
        if (row == col) mats[i] = mats[i] + {n};
    }}
    double t0 = wtime();
    for (t = 0; t < {nt}; t++) {{
        pthread_create(&threads[t], NULL, tf, (void *)t);
    }}
    for (t = 0; t < {nt}; t++) {{
        pthread_join(threads[t], NULL);
    }}
    double t1 = wtime();
    double total = 0.0;
    for (t = 0; t < {nt}; t++) total += checks[t];
    printf("lu %.3f\n", total);
    return (int)total;
}}
"#
    )
}

fn stream_src(p: &Params) -> String {
    let nt = p.threads;
    let n = p.size;
    let reps = p.reps;
    format!(
        r#"
#include <stdio.h>
#include <pthread.h>

double a[{n}];
double b[{n}];
double c[{n}];

void *tf(void *tid) {{
    int id = (int)tid;
    int chunk = {n} / {nt};
    int lo = id * chunk;
    int hi = lo + chunk;
    if (id == {nt} - 1) hi = {n};
    int r;
    int j;
    for (r = 0; r < {reps}; r++) {{
        for (j = lo; j < hi; j++) c[j] = a[j];
        for (j = lo; j < hi; j++) b[j] = 3.0 * c[j];
        for (j = lo; j < hi; j++) c[j] = a[j] + b[j];
        for (j = lo; j < hi; j++) a[j] = b[j] + 3.0 * c[j];
    }}
    pthread_exit(NULL);
}}

int main() {{
    pthread_t threads[{nt}];
    int t;
    int j;
    for (j = 0; j < {n}; j++) {{
        a[j] = 1.0;
        b[j] = 2.0;
        c[j] = 0.0;
    }}
    double t0 = wtime();
    for (t = 0; t < {nt}; t++) {{
        pthread_create(&threads[t], NULL, tf, (void *)t);
    }}
    for (t = 0; t < {nt}; t++) {{
        pthread_join(threads[t], NULL);
    }}
    double t1 = wtime();
    double check = 0.0;
    for (j = 0; j < {n}; j++) check += a[j];
    printf("stream %.1f\n", check);
    return (int)(check / {n});
}}
"#
    )
}

/// The four Stream kernels (Algorithms 13–16 of the paper's appendix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKernel {
    /// `c[j] = a[j]` (Algorithm 14).
    Copy,
    /// `b[j] = 3.0 * c[j]` (Algorithm 15).
    Scale,
    /// `c[j] = a[j] + b[j]` (Algorithm 13).
    Add,
    /// `a[j] = b[j] + 3.0 * c[j]` (Algorithm 16).
    Triad,
}

impl StreamKernel {
    /// All four kernels in STREAM's reporting order.
    pub fn all() -> [StreamKernel; 4] {
        [
            StreamKernel::Copy,
            StreamKernel::Scale,
            StreamKernel::Add,
            StreamKernel::Triad,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StreamKernel::Copy => "Copy",
            StreamKernel::Scale => "Scale",
            StreamKernel::Add => "Add",
            StreamKernel::Triad => "Triad",
        }
    }

    /// The kernel's loop body statement.
    fn body(self) -> &'static str {
        match self {
            StreamKernel::Copy => "c[j] = a[j];",
            StreamKernel::Scale => "b[j] = 3.0 * c[j];",
            StreamKernel::Add => "c[j] = a[j] + b[j];",
            StreamKernel::Triad => "a[j] = b[j] + 3.0 * c[j];",
        }
    }

    /// Bytes moved per element per iteration (STREAM's counting rule).
    pub fn bytes_per_elem(self) -> usize {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 16,
            StreamKernel::Add | StreamKernel::Triad => 24,
        }
    }
}

/// Generates a pthread program that runs *one* Stream kernel, timed with
/// the §5.2 protocol — the per-kernel breakdown behind the Stream bar of
/// Figures 6.1/6.2.
pub fn stream_kernel_source(kernel: StreamKernel, p: &Params) -> String {
    let nt = p.threads;
    let n = p.size;
    let reps = p.reps;
    let body = kernel.body();
    format!(
        r#"
#include <stdio.h>
#include <pthread.h>

double a[{n}];
double b[{n}];
double c[{n}];

void *tf(void *tid) {{
    int id = (int)tid;
    int chunk = {n} / {nt};
    int lo = id * chunk;
    int hi = lo + chunk;
    if (id == {nt} - 1) hi = {n};
    int r;
    int j;
    for (r = 0; r < {reps}; r++) {{
        for (j = lo; j < hi; j++) {body}
    }}
    pthread_exit(NULL);
}}

int main() {{
    pthread_t threads[{nt}];
    int t;
    int j;
    for (j = 0; j < {n}; j++) {{
        a[j] = 1.0;
        b[j] = 2.0;
        c[j] = 0.5;
    }}
    double t0 = wtime();
    for (t = 0; t < {nt}; t++) {{
        pthread_create(&threads[t], NULL, tf, (void *)t);
    }}
    for (t = 0; t < {nt}; t++) {{
        pthread_join(threads[t], NULL);
    }}
    double t1 = wtime();
    double check = a[0] + b[0] + c[0];
    printf("kernel check %.3f\n", check);
    return (int)(check * 100.0);
}}
"#
    )
}

// -------------------------------------------------------- extensions --

/// Extension benchmark (not in the paper's six): 1-D Jacobi heat
/// diffusion with `pthread_barrier` synchronization *inside* the worker —
/// exercises the translator's barrier conversion and the simulator's
/// repeated chip-wide barriers, the pattern the paper's §7.3 "code
/// optimizations" future work would target.
pub fn jacobi_source(p: &Params) -> String {
    let nt = p.threads;
    let n = p.size;
    let iters = p.reps;
    format!(
        r#"
#include <stdio.h>
#include <pthread.h>

double ua[{n}];
double ub[{n}];
pthread_barrier_t step_barrier;

void *tf(void *tid) {{
    int id = (int)tid;
    int chunk = ({n} - 2) / {nt};
    int lo = 1 + id * chunk;
    int hi = lo + chunk;
    if (id == {nt} - 1) hi = {n} - 1;
    double *src = ua;
    double *dst = ub;
    int it;
    int j;
    for (it = 0; it < {iters}; it++) {{
        for (j = lo; j < hi; j++) {{
            dst[j] = 0.5 * src[j] + 0.25 * (src[j - 1] + src[j + 1]);
        }}
        pthread_barrier_wait(&step_barrier);
        double *tmp2 = src;
        src = dst;
        dst = tmp2;
    }}
    pthread_exit(NULL);
}}

int main() {{
    pthread_t threads[{nt}];
    int t;
    int j;
    pthread_barrier_init(&step_barrier, NULL, {nt});
    for (j = 0; j < {n}; j++) {{
        ua[j] = 0.0;
        ub[j] = 0.0;
    }}
    ua[0] = 100.0;
    ua[{n} - 1] = 100.0;
    ub[0] = 100.0;
    ub[{n} - 1] = 100.0;
    double t0 = wtime();
    for (t = 0; t < {nt}; t++) {{
        pthread_create(&threads[t], NULL, tf, (void *)t);
    }}
    for (t = 0; t < {nt}; t++) {{
        pthread_join(threads[t], NULL);
    }}
    double t1 = wtime();
    pthread_barrier_destroy(&step_barrier);
    double check = 0.0;
    if ({iters} % 2 == 0) {{
        for (j = 0; j < {n}; j++) check += ua[j];
    }} else {{
        for (j = 0; j < {n}; j++) check += ub[j];
    }}
    printf("jacobi %.3f\n", check);
    return (int)check;
}}
"#
    )
}

/// Rust reference for [`jacobi_source`], same operation order.
pub fn jacobi_reference_exit(p: &Params) -> i64 {
    let (n, iters) = (p.size, p.reps);
    let mut ua = vec![0.0f64; n];
    let mut ub = vec![0.0f64; n];
    ua[0] = 100.0;
    ua[n - 1] = 100.0;
    ub[0] = 100.0;
    ub[n - 1] = 100.0;
    for it in 0..iters {
        let (src, dst) = if it % 2 == 0 {
            (&mut ua, &mut ub)
        } else {
            (&mut ub, &mut ua)
        };
        for j in 1..n - 1 {
            dst[j] = 0.5 * src[j] + 0.25 * (src[j - 1] + src[j + 1]);
        }
    }
    let result = if iters % 2 == 0 { &ua } else { &ub };
    let check: f64 = result.iter().sum();
    check as i64
}

// -------------------------------------------------------------- reference --

/// Computes the benchmark's expected exit code with the exact operation
/// order of the generated C source (bitwise-identical floating point).
pub fn reference_exit(bench: Bench, p: &Params) -> i64 {
    match bench {
        Bench::CountPrimes => ref_count_primes(p),
        Bench::PiApprox => ref_pi(p),
        Bench::Sum35 => ref_sum35(p),
        Bench::DotProduct => ref_dot(p),
        Bench::LuDecomp => ref_lu(p),
        Bench::Stream => ref_stream(p),
    }
}

fn ref_count_primes(p: &Params) -> i64 {
    let (nt, limit) = (p.threads as i64, p.size as i64);
    let chunk = (limit - 2) / nt;
    let mut total = 0i64;
    for id in 0..nt {
        let lo = 2 + id * chunk;
        let hi = if id == nt - 1 { limit } else { lo + chunk };
        for i in lo..hi {
            let mut prime = 1;
            let mut j = 2i64;
            while j < i {
                if i % j == 0 {
                    prime = 0;
                    break;
                }
                j += 1;
            }
            total += prime;
        }
    }
    total
}

fn ref_pi(p: &Params) -> i64 {
    let (nt, steps) = (p.threads, p.size);
    let chunk = steps / nt;
    let step = 1.0 / steps as f64;
    let mut partial = vec![0.0f64; nt];
    for (id, slot) in partial.iter_mut().enumerate() {
        let lo = id * chunk;
        let hi = if id == nt - 1 { steps } else { lo + chunk };
        let mut sum = 0.0f64;
        for i in lo..hi {
            let x = (i as f64 + 0.5) * step;
            sum += 4.0 / (1.0 + x * x);
        }
        *slot = sum;
    }
    let mut pi = 0.0f64;
    for v in &partial {
        pi += v;
    }
    pi /= steps as f64;
    (pi * 1_000_000.0) as i64
}

fn ref_sum35(p: &Params) -> i64 {
    let (nt, limit) = (p.threads as i64, p.size as i64);
    let chunk = limit / nt;
    let mut total = 0i64;
    for id in 0..nt {
        let lo = id * chunk;
        let hi = if id == nt - 1 { limit } else { lo + chunk };
        for i in lo..hi {
            if i % 3 == 0 || i % 5 == 0 {
                total += i;
            }
        }
    }
    total % 1_000_000_007
}

fn ref_dot(p: &Params) -> i64 {
    let (nt, n, reps) = (p.threads, p.size, p.reps);
    let a: Vec<f64> = (0..n).map(|i| (i % 10) as f64 * 0.5).collect();
    let b: Vec<f64> = (0..n).map(|i| ((i + 3) % 7) as f64 * 0.25).collect();
    let chunk = n / nt;
    let mut total = 0.0f64;
    for id in 0..nt {
        let lo = id * chunk;
        let hi = if id == nt - 1 { n } else { lo + chunk };
        let mut sum = 0.0f64;
        for _ in 0..reps {
            for i in lo..hi {
                sum += a[i] * b[i];
            }
        }
        total += sum;
    }
    (total / reps as f64) as i64
}

fn ref_lu(p: &Params) -> i64 {
    let (nt, n, batch) = (p.threads, p.size, p.reps);
    let total_elems = n * n * batch;
    let mut mats: Vec<f64> = (0..total_elems)
        .map(|i| {
            let row = (i / n) % n;
            let col = i % n;
            let mut v = ((i % 13) + 1) as f64 * 0.125;
            if row == col {
                v += n as f64;
            }
            v
        })
        .collect();
    let per = batch / nt;
    let mut total = 0.0f64;
    for id in 0..nt {
        let lo = id * per;
        let hi = if id == nt - 1 { batch } else { lo + per };
        let mut check = 0.0f64;
        for m in lo..hi {
            let base = m * n * n;
            for k in 0..n {
                for i in k + 1..n {
                    let factor = mats[base + i * n + k] / mats[base + k * n + k];
                    mats[base + i * n + k] = factor;
                    for j in k + 1..n {
                        mats[base + i * n + j] -= factor * mats[base + k * n + j];
                    }
                }
            }
            for k in 0..n {
                check += mats[base + k * n + k];
            }
        }
        total += check;
    }
    total as i64
}

#[allow(clippy::manual_memcpy)] // mirrors the C kernel's loop exactly
fn ref_stream(p: &Params) -> i64 {
    let (nt, n, reps) = (p.threads, p.size, p.reps);
    let mut a = vec![1.0f64; n];
    let mut b = vec![2.0f64; n];
    let mut c = vec![0.0f64; n];
    // Kernels are element-wise within disjoint slices: thread order does
    // not matter, so compute globally per repetition the way every thread
    // does for its slice.
    let chunk = n / nt;
    for id in 0..nt {
        let lo = id * chunk;
        let hi = if id == nt - 1 { n } else { lo + chunk };
        for _ in 0..reps {
            for j in lo..hi {
                c[j] = a[j];
            }
            for j in lo..hi {
                b[j] = 3.0 * c[j];
            }
            for j in lo..hi {
                c[j] = a[j] + b[j];
            }
            for j in lo..hi {
                a[j] = b[j] + 3.0 * c[j];
            }
        }
    }
    let mut check = 0.0f64;
    for v in &a {
        check += v;
    }
    (check / n as f64) as i64
}

/// Total shared-data footprint in bytes of a benchmark instance (the
/// partitioner's view: globals identified as shared).
pub fn shared_footprint(bench: Bench, p: &Params) -> usize {
    match bench {
        Bench::CountPrimes => p.threads * 4,
        Bench::PiApprox => p.threads * 8,
        Bench::Sum35 => p.threads * 8,
        Bench::DotProduct => 2 * p.size * 8 + p.threads * 8,
        Bench::LuDecomp => p.size * p.size * p.reps * 8 + p.threads * 8,
        Bench::Stream => 3 * p.size * 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(bench: Bench) -> Params {
        let mut p = bench.default_params(4);
        p.size = match bench {
            Bench::CountPrimes => 500,
            Bench::PiApprox => 1000,
            Bench::Sum35 => 2000,
            Bench::DotProduct => 64,
            Bench::LuDecomp => 6,
            Bench::Stream => 64,
        };
        if bench == Bench::LuDecomp {
            p.reps = 8;
        }
        p
    }

    #[test]
    fn all_sources_parse() {
        for bench in Bench::all() {
            let p = small(bench);
            let src = source(bench, &p);
            hsm_cir::parse(&src).unwrap_or_else(|e| panic!("{bench}: {e}\n{src}"));
        }
    }

    #[test]
    fn sources_use_the_timing_protocol() {
        for bench in Bench::all() {
            let src = source(bench, &small(bench));
            assert!(src.contains("wtime()"), "{bench} lacks timestamps");
            assert!(src.contains("pthread_create"), "{bench}");
            assert!(src.contains("pthread_join"), "{bench}");
        }
    }

    #[test]
    fn reference_primes_matches_known_value() {
        // π(100) = 25 primes below 100.
        let p = Params {
            threads: 1,
            size: 100,
            reps: 1,
        };
        assert_eq!(ref_count_primes(&p), 25);
        // Partitioning must not change the count.
        let p4 = Params {
            threads: 4,
            size: 100,
            reps: 1,
        };
        assert_eq!(ref_count_primes(&p4), 25);
    }

    #[test]
    fn reference_pi_approaches_pi() {
        let p = Params {
            threads: 8,
            size: 100_000,
            reps: 1,
        };
        let v = ref_pi(&p);
        assert!((v - 3_141_592).abs() <= 2, "{v}");
    }

    #[test]
    fn reference_sum35_matches_euler() {
        // Project Euler #1: sum of multiples of 3 or 5 below 1000 = 233168.
        let p = Params {
            threads: 3,
            size: 1000,
            reps: 1,
        };
        assert_eq!(ref_sum35(&p), 233_168);
    }

    #[test]
    fn reference_dot_is_partition_invariant() {
        let p1 = Params {
            threads: 1,
            size: 64,
            reps: 2,
        };
        let p4 = Params {
            threads: 4,
            size: 64,
            reps: 2,
        };
        assert_eq!(ref_dot(&p1), ref_dot(&p4));
    }

    #[test]
    fn reference_lu_diagonal_is_stable() {
        let p = Params {
            threads: 2,
            size: 6,
            reps: 8,
        };
        let v = ref_lu(&p);
        // Diagonally dominant matrices: all pivots positive, so the
        // diagonal checksum is positive and partition-invariant.
        assert!(v > 0);
        let p1 = Params { threads: 1, ..p };
        assert_eq!(ref_lu(&p1), v);
    }

    #[test]
    fn reference_stream_checksum() {
        // One rep from a=1,b=2,c=0: c=a=1; b=3; c=a+b=4; a=b+3c=15.
        let p = Params {
            threads: 2,
            size: 64,
            reps: 1,
        };
        assert_eq!(ref_stream(&p), 15);
    }

    #[test]
    fn lu_default_exceeds_mpb_but_stream_fits() {
        let mpb = 48 * 8192;
        let lu = Bench::LuDecomp.default_params(32);
        assert!(
            shared_footprint(Bench::LuDecomp, &lu) > mpb,
            "LU must not fit the 384 KB MPB"
        );
        let st = Bench::Stream.default_params(32);
        assert!(
            shared_footprint(Bench::Stream, &st) <= mpb,
            "Stream must fit the 384 KB MPB"
        );
        let dot = Bench::DotProduct.default_params(32);
        assert!(shared_footprint(Bench::DotProduct, &dot) <= mpb);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Bench::PiApprox.name(), "Pi Approximation");
        assert_eq!(Bench::all().len(), 6);
        assert_eq!(Bench::Sum35.to_string(), "3-5-Sum");
    }

    #[test]
    fn stream_kernel_sources_parse_and_differ() {
        let p = Params {
            threads: 4,
            size: 64,
            reps: 1,
        };
        let mut bodies = std::collections::HashSet::new();
        for k in StreamKernel::all() {
            let src = stream_kernel_source(k, &p);
            hsm_cir::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", k.name()));
            assert!(bodies.insert(src), "{} duplicated another kernel", k.name());
        }
    }

    #[test]
    fn stream_kernel_byte_counts_follow_stream_convention() {
        assert_eq!(StreamKernel::Copy.bytes_per_elem(), 16);
        assert_eq!(StreamKernel::Scale.bytes_per_elem(), 16);
        assert_eq!(StreamKernel::Add.bytes_per_elem(), 24);
        assert_eq!(StreamKernel::Triad.bytes_per_elem(), 24);
    }

    #[test]
    fn jacobi_source_parses_and_reference_converges() {
        let p = Params {
            threads: 4,
            size: 64,
            reps: 10,
        };
        hsm_cir::parse(&jacobi_source(&p)).expect("jacobi parses");
        // Heat flows inward from the 100-degree boundaries: the checksum
        // grows with iterations and stays below the all-hot bound.
        let short = jacobi_reference_exit(&Params { reps: 2, ..p });
        let long = jacobi_reference_exit(&Params { reps: 20, ..p });
        assert!(long > short, "{long} vs {short}");
        assert!(long < 64 * 100);
    }
}
