//! Cached sparse LDLᵀ factorisation: factor once, solve many.
//!
//! The thermal RC conductance topology is fixed per floorplan — across a
//! sweep, a fixed-point iteration, or a pattern-optimisation loop only
//! the power right-hand side changes. This module exploits that
//! structure:
//!
//! * [`factor_spd`] runs a fill-reducing minimum-degree ordering, a
//!   symbolic analysis and the numeric factorisation **once**, producing
//!   reusable [`SpdFactors`]; every subsequent [`SpdFactors::solve`] is a
//!   sparse forward/diagonal/backward substitution — no iteration at all.
//! * [`FactorCache`] keys factors by a content digest of the matrix —
//!   the same discipline as the engine's content-addressed result cache
//!   — bounded and thread-safe, so concurrent engine jobs solving on the
//!   same floorplan factor it exactly once per process.
//! * [`solve_spd_factored`] is the one SPD-solve entry point: factored
//!   substitution with a residual check, falling back into the
//!   CG → restarted-CG → dense-LU chain when the matrix has no factors
//!   or the factored solution drifts.
//!
//! Factorisation is deterministic, so results are byte-identical whether
//! a factor is computed fresh or served from the cache, at any worker
//! count.
#![deny(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::robust::{record_diagnostics, solve_chain_from};
use crate::{norm2, CgOptions, CsrMatrix, NumericsError, SolveDiagnostics, SolveStage};

/// Sentinel for "no parent" in the elimination tree.
const NONE: usize = usize::MAX;

/// Bound on cached factorisations held by the process-global
/// [`FactorCache`]: enough for every distinct floorplan/package/step
/// matrix a large sweep touches, small enough to stay a rounding error
/// in memory next to the result cache.
const GLOBAL_CACHE_CAPACITY: usize = 32;

/// Symmetry tolerance required of factorable matrices: mirrored entries
/// must agree to this relative precision or the factor path declines
/// and the robust chain takes over.
const SYMMETRY_TOL: f64 = 1.0e-9;

// ---------------------------------------------------------------------------
// Minimum-degree ordering
// ---------------------------------------------------------------------------

/// Deterministic fill-reducing ordering: greedy minimum degree on the
/// explicit elimination graph. Returns `perm` with `perm[new] = old`.
///
/// At every step the vertex of smallest current degree (ties broken by
/// index, so the ordering is reproducible) is eliminated and its
/// neighbourhood turned into a clique — exactly the fill the numeric
/// phase will create. Thermal RC networks are stacked grids plus a few
/// hubs (the spreader and sink periphery rings couple to every edge
/// cell of their layer); minimum degree defers the hubs to the end of
/// the order naturally and beats a bandwidth ordering on the layered
/// bulk. The O(n²)-ish cost is paid once per cached factorisation.
fn min_degree_order(a: &CsrMatrix) -> Vec<usize> {
    let n = a.rows();
    let words = n.div_ceil(64);
    // Dense bitset adjacency rows: clique merges become word-wise ORs
    // and degrees are popcounts, so each elimination costs
    // O(degree · n/64) instead of O(degree²·log n) set inserts.
    let mut adj = vec![0_u64; n * words];
    for (r, c, _) in a.iter() {
        if r != c {
            adj[r * words + c / 64] |= 1 << (c % 64);
            adj[c * words + r / 64] |= 1 << (r % 64);
        }
    }
    let popcount = |row: &[u64]| -> usize { row.iter().map(|w| w.count_ones() as usize).sum() };
    let mut degree: Vec<usize> = (0..n)
        .map(|i| popcount(&adj[i * words..(i + 1) * words]))
        .collect();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        // Smallest current degree, ties broken by index for a
        // reproducible ordering.
        let Some(v) = (0..n)
            .filter(|&i| !eliminated[i])
            .min_by_key(|&i| degree[i])
        else {
            break;
        };
        eliminated[v] = true;
        order.push(v);
        let row_v: Vec<u64> = adj[v * words..(v + 1) * words].to_vec();
        for (base, &word) in row_v.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let u = base * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let row_u = &mut adj[u * words..(u + 1) * words];
                // Merge v's neighbourhood (the elimination clique),
                // then drop v itself and any self-loop.
                for (dst, &src) in row_u.iter_mut().zip(&row_v) {
                    *dst |= src;
                }
                row_u[v / 64] &= !(1 << (v % 64));
                row_u[u / 64] &= !(1 << (u % 64));
                degree[u] = popcount(&adj[u * words..(u + 1) * words]);
            }
        }
    }
    order
}

// ---------------------------------------------------------------------------
// SpdFactors
// ---------------------------------------------------------------------------

/// A reusable sparse LDLᵀ factorisation `P·A·Pᵀ = L·D·Lᵀ` of a symmetric
/// positive-definite matrix.
///
/// Produced by [`factor_spd`], which does the fill-reducing ordering,
/// symbolic analysis and numeric factorisation once;
/// [`SpdFactors::solve`] is a pure substitution.
#[derive(Debug, Clone)]
pub struct SpdFactors {
    n: usize,
    /// `perm[new] = old`.
    perm: Vec<usize>,
    /// `L` (unit diagonal, strictly-lower part) in compressed-column form.
    l_colptr: Vec<usize>,
    /// Row indices are stored narrow (`u32`) to halve the memory the
    /// substitution loops stream per solve.
    l_rowidx: Vec<u32>,
    l_values: Vec<f64>,
    /// Reciprocals of the diagonal matrix `D`, precomputed so the solve
    /// hot loop multiplies instead of divides.
    d_inv: Vec<f64>,
    /// First column of the dense trailing block. Minimum-degree pushes
    /// fill towards the end of the order; once the tail is at least half
    /// full it is cheaper to process as a packed dense triangle (no
    /// index loads, contiguous streaming) than as indexed sparse
    /// columns. `n` when no tail qualifies.
    dense_start: usize,
    /// Strictly-lower entries of columns `dense_start..n`, packed
    /// column-major: column `j` stores rows `j+1..n` contiguously,
    /// explicit zeros included.
    dense_cols: Vec<f64>,
}

/// A trailing block is stored dense once its fill is at least this
/// fraction of the full triangle. Dense slots stream ≈4× faster than
/// indexed sparse entries, so break-even is near 0.25; 0.5 keeps a
/// safety margin and bounds the dense storage at twice the true fill.
const DENSE_TAIL_MIN_FILL: f64 = 0.5;

impl SpdFactors {
    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// Stored entries in `L` (strictly lower triangle; the unit diagonal
    /// is implicit). A measure of fill-in for diagnostics and tests.
    #[must_use]
    pub fn nnz_l(&self) -> usize {
        self.l_values.len()
    }

    /// Solves `A·x = b` by permuted forward/diagonal/backward
    /// substitution.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        if b.len() != self.n {
            return Err(NumericsError::DimensionMismatch {
                context: format!("rhs has {} rows, matrix has {}", b.len(), self.n),
            });
        }
        let n = self.n;
        let s = self.dense_start;
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // L·y = P·b (unit diagonal): indexed columns, then the packed
        // dense tail.
        for j in 0..s {
            let xj = x[j];
            if xj != 0.0 {
                let (lo, hi) = (self.l_colptr[j], self.l_colptr[j + 1]);
                for (&r, &v) in self.l_rowidx[lo..hi].iter().zip(&self.l_values[lo..hi]) {
                    x[r as usize] -= v * xj;
                }
            }
        }
        let mut off = 0;
        for j in s..n {
            let xj = x[j];
            let col = &self.dense_cols[off..off + (n - 1 - j)];
            off += n - 1 - j;
            if xj != 0.0 {
                for (xi, &v) in x[j + 1..].iter_mut().zip(col) {
                    *xi -= v * xj;
                }
            }
        }
        // D·z = y.
        for (xi, di) in x.iter_mut().zip(&self.d_inv) {
            *xi *= di;
        }
        // Lᵀ·w = z: dense tail first (reverse order), then the indexed
        // columns.
        for j in (s..n).rev() {
            off -= n - 1 - j;
            let col = &self.dense_cols[off..off + (n - 1 - j)];
            let xs = &x[j + 1..];
            // Four independent accumulators break the FMA latency chain
            // of a sequential dot product.
            let mut acc = [0.0_f64; 4];
            let mut xc = xs.chunks_exact(4);
            let mut vc = col.chunks_exact(4);
            for (xk, vk) in (&mut xc).zip(&mut vc) {
                acc[0] += vk[0] * xk[0];
                acc[1] += vk[1] * xk[1];
                acc[2] += vk[2] * xk[2];
                acc[3] += vk[3] * xk[3];
            }
            let mut rest = 0.0;
            for (&xi, &v) in xc.remainder().iter().zip(vc.remainder()) {
                rest += v * xi;
            }
            x[j] -= acc[0] + acc[1] + acc[2] + acc[3] + rest;
        }
        for j in (0..s).rev() {
            let (lo, hi) = (self.l_colptr[j], self.l_colptr[j + 1]);
            let mut xj = x[j];
            for (&r, &v) in self.l_rowidx[lo..hi].iter().zip(&self.l_values[lo..hi]) {
                xj -= v * x[r as usize];
            }
            x[j] = xj;
        }
        // Undo the permutation.
        let mut out = vec![0.0; n];
        for (k, &p) in self.perm.iter().enumerate() {
            out[p] = x[k];
        }
        Ok(out)
    }

    /// Chooses the dense trailing block and packs its columns from the
    /// just-computed sparse factor.
    #[allow(clippy::cast_precision_loss)]
    fn pack_dense(&mut self) {
        let n = self.n;
        // Largest tail whose fill reaches DENSE_TAIL_MIN_FILL of the
        // packed triangle.
        let mut start = n;
        let mut tail_nnz = 0_usize;
        let mut slots = 0_usize;
        for j in (0..n).rev() {
            tail_nnz += self.l_colptr[j + 1] - self.l_colptr[j];
            slots += n - 1 - j;
            if slots > 0 && tail_nnz as f64 >= DENSE_TAIL_MIN_FILL * slots as f64 {
                start = j;
            }
        }
        self.dense_start = start;
        let total: usize = (start..n).map(|j| n - 1 - j).sum();
        self.dense_cols = vec![0.0; total];
        let mut off = 0;
        for j in start..n {
            for p in self.l_colptr[j]..self.l_colptr[j + 1] {
                let r = self.l_rowidx[p] as usize;
                self.dense_cols[off + r - j - 1] = self.l_values[p];
            }
            off += n - 1 - j;
        }
    }
}

/// Factorises a sparse symmetric positive-definite matrix as
/// `P·A·Pᵀ = L·D·Lᵀ`: minimum-degree ordering, one symbolic
/// analysis, then the numeric factorisation.
///
/// The result is reusable: solve any number of right-hand sides with
/// [`SpdFactors::solve`].
///
/// # Errors
///
/// - [`NumericsError::DimensionMismatch`] if the matrix is not square or
///   is not symmetric (to a 1e-9 relative tolerance) — LDLᵀ
///   without pivoting requires exact structural symmetry.
/// - [`NumericsError::NonFinite`] for NaN/Inf entries.
/// - [`NumericsError::SingularMatrix`] when a pivot is non-positive,
///   i.e. the matrix is not positive definite; the carried index is the
///   original (unpermuted) node.
pub fn factor_spd(a: &CsrMatrix) -> Result<SpdFactors, NumericsError> {
    let n = a.rows();
    if n > u32::MAX as usize {
        return Err(NumericsError::DimensionMismatch {
            context: format!("LDLt row indices are u32; {n} rows exceed that"),
        });
    }
    if a.cols() != n {
        return Err(NumericsError::DimensionMismatch {
            context: format!(
                "LDLt requires a square matrix, got {}×{}",
                a.rows(),
                a.cols()
            ),
        });
    }
    if let Some((row, col, value)) = a.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(NumericsError::NonFinite {
            context: format!("matrix entry ({row}, {col}) is {value}"),
        });
    }
    if !a.is_symmetric(SYMMETRY_TOL) {
        return Err(NumericsError::DimensionMismatch {
            context: "LDLt requires a symmetric matrix".to_string(),
        });
    }

    let perm = min_degree_order(a);
    let mut perm_inv = vec![0_usize; n];
    for (new, &old) in perm.iter().enumerate() {
        perm_inv[old] = new;
    }

    // Permuted upper triangle in compressed-column form, sorted by
    // (column, row). Structural symmetry means keeping the entries that
    // land in the upper triangle covers the whole matrix.
    let mut upper: Vec<(usize, usize, f64)> = a
        .iter()
        .filter_map(|(r, c, v)| {
            let (pr, pc) = (perm_inv[r], perm_inv[c]);
            (pr <= pc).then_some((pc, pr, v))
        })
        .collect();
    upper.sort_unstable_by_key(|&(c, r, _)| (c, r));

    let mut b_colptr = vec![0_usize; n + 1];
    let mut b_rowidx = Vec::with_capacity(upper.len());
    let mut b_values = Vec::with_capacity(upper.len());
    let mut has_diag = vec![false; n];
    for &(c, r, v) in &upper {
        b_colptr[c + 1] += 1;
        has_diag[c] |= r == c;
        b_rowidx.push(r);
        b_values.push(v);
    }
    for c in 0..n {
        b_colptr[c + 1] += b_colptr[c];
    }
    if let Some(k) = has_diag.iter().position(|&d| !d) {
        // A structurally missing diagonal cannot be positive definite.
        return Err(NumericsError::SingularMatrix { pivot: perm[k] });
    }

    // Symbolic phase: elimination tree + per-column counts of L.
    let mut parent = vec![NONE; n];
    let mut flag = vec![NONE; n];
    let mut lnz = vec![0_usize; n];
    for k in 0..n {
        flag[k] = k;
        for &row in &b_rowidx[b_colptr[k]..b_colptr[k + 1]] {
            let mut i = row;
            while flag[i] != k {
                if parent[i] == NONE {
                    parent[i] = k;
                }
                lnz[i] += 1;
                flag[i] = k;
                i = parent[i];
            }
        }
    }
    let mut l_colptr = vec![0_usize; n + 1];
    for k in 0..n {
        l_colptr[k + 1] = l_colptr[k] + lnz[k];
    }
    let nnz_l = l_colptr[n];

    // Numeric phase: up-looking sparse LDLᵀ over the permuted upper
    // triangle, following the classic `LDL` elimination (Davis): for
    // each row `k`, scatter the upper column into a dense work vector,
    // walk the elimination tree for the row pattern, and eliminate in
    // topological order.
    let mut l_rowidx = vec![0_u32; nnz_l];
    let mut l_values = vec![0.0; nnz_l];
    let mut d = vec![0.0; n];
    let mut d_inv = vec![0.0; n];
    let mut y = vec![0.0; n];
    let mut pattern = vec![0_usize; n];
    flag.fill(NONE);
    lnz.fill(0);
    for k in 0..n {
        let mut top = n;
        flag[k] = k;
        for p in b_colptr[k]..b_colptr[k + 1] {
            let mut i = b_rowidx[p];
            y[i] += b_values[p];
            // Row pattern: path from i up the elimination tree.
            let mut len = 0;
            while flag[i] != k {
                pattern[len] = i;
                len += 1;
                flag[i] = k;
                i = parent[i];
            }
            while len > 0 {
                len -= 1;
                top -= 1;
                pattern[top] = pattern[len];
            }
        }
        let mut dk = y[k];
        y[k] = 0.0;
        for &i in &pattern[top..n] {
            let yi = y[i];
            y[i] = 0.0;
            let p2 = l_colptr[i] + lnz[i];
            for p in l_colptr[i]..p2 {
                y[l_rowidx[p] as usize] -= l_values[p] * yi;
            }
            let l_ki = yi / d[i];
            dk -= l_ki * yi;
            #[allow(clippy::cast_possible_truncation)] // n ≤ u32::MAX checked at entry
            {
                l_rowidx[p2] = k as u32;
            }
            l_values[p2] = l_ki;
            lnz[i] += 1;
        }
        if !(dk.is_finite() && dk > 0.0) {
            return Err(NumericsError::SingularMatrix { pivot: perm[k] });
        }
        d[k] = dk;
        d_inv[k] = 1.0 / dk;
    }

    let mut factors = SpdFactors {
        n,
        perm,
        l_colptr,
        l_rowidx,
        l_values,
        d_inv,
        dense_start: n,
        dense_cols: Vec::new(),
    };
    factors.pack_dense();
    Ok(factors)
}

// ---------------------------------------------------------------------------
// FactorCache
// ---------------------------------------------------------------------------

/// FNV-1a content digest of a matrix: dimensions, sparsity pattern and
/// value bits. Two matrices share a digest exactly when they are
/// entry-for-entry identical — the cache key discipline of the engine's
/// content-addressed result cache.
fn matrix_digest(a: &CsrMatrix) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(a.rows() as u64);
    mix(a.cols() as u64);
    for (r, c, v) in a.iter() {
        mix(r as u64);
        mix(c as u64);
        mix(v.to_bits());
    }
    h
}

/// Aggregate counters of a [`FactorCache`], for health endpoints and the
/// trace summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactorCacheStats {
    /// Lookups served from an existing factorisation.
    pub hits: u64,
    /// Lookups that had to factor (or re-discover a non-factorable
    /// matrix).
    pub misses: u64,
    /// Factorisations currently held.
    pub entries: usize,
}

struct CacheInner {
    /// LRU order: most recently used last.
    entries: Vec<(u64, Arc<SpdFactors>)>,
    /// Digests that failed to factor (non-symmetric, not SPD): remembered
    /// so the robust chain is taken directly instead of re-attempting a
    /// doomed factorisation every solve.
    failed: Vec<u64>,
}

/// A bounded, thread-safe cache of [`SpdFactors`] keyed by matrix
/// content digest (FNV-1a over dimensions, pattern and value bits).
///
/// Factorisation happens under the cache lock, so concurrent solvers on
/// the same matrix factor it exactly once and hit/miss counts are
/// deterministic at any worker count. Capacity overflow evicts the
/// least-recently-used entry. Results are byte-identical whether a
/// factor is fresh or cached — factorisation is deterministic.
pub struct FactorCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for FactorCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("FactorCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

impl FactorCache {
    /// Creates an empty cache bounded to `capacity` factorisations.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                entries: Vec::new(),
                failed: Vec::new(),
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The process-global cache the thermal model and the backward-Euler
    /// stepper resolve their factors through.
    pub fn global() -> &'static Self {
        static GLOBAL: OnceLock<FactorCache> = OnceLock::new();
        GLOBAL.get_or_init(|| Self::new(GLOBAL_CACHE_CAPACITY))
    }

    /// Returns the factorisation for `a`, computing and caching it on
    /// first sight. Returns `None` when `a` is not factorable
    /// (non-symmetric or not positive definite) — callers fall back to
    /// the robust iterative chain; the failure is remembered so the
    /// attempt is not repeated.
    pub fn get_or_factor(&self, a: &CsrMatrix) -> Option<Arc<SpdFactors>> {
        let digest = matrix_digest(a);
        let mut inner = match self.inner.lock() {
            Ok(guard) => guard,
            // A panic mid-factor never leaves a partial entry behind;
            // keep serving from the surviving state.
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(pos) = inner.entries.iter().position(|(d, _)| *d == digest) {
            let entry = inner.entries.remove(pos);
            let factors = entry.1.clone();
            inner.entries.push(entry);
            self.hits.fetch_add(1, Ordering::Relaxed);
            darksil_obs::counter("numerics.factor_cache.hit", 1);
            return Some(factors);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        darksil_obs::counter("numerics.factor_cache.miss", 1);
        if inner.failed.contains(&digest) {
            return None;
        }
        let _span = darksil_obs::span("numerics.factor");
        match factor_spd(a) {
            Ok(factors) => {
                #[allow(clippy::cast_precision_loss)]
                darksil_obs::observe("numerics.factor.nnz_l", factors.nnz_l() as f64);
                let factors = Arc::new(factors);
                inner.entries.push((digest, factors.clone()));
                if inner.entries.len() > self.capacity {
                    inner.entries.remove(0);
                }
                Some(factors)
            }
            Err(_) => {
                darksil_obs::counter("numerics.factor.unfactorable", 1);
                inner.failed.push(digest);
                if inner.failed.len() > self.capacity {
                    inner.failed.remove(0);
                }
                None
            }
        }
    }

    /// Current hit/miss/occupancy counters.
    pub fn stats(&self) -> FactorCacheStats {
        let entries = match self.inner.lock() {
            Ok(guard) => guard.entries.len(),
            Err(poisoned) => poisoned.into_inner().entries.len(),
        };
        FactorCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
        }
    }
}

/// Counters of the process-global [`FactorCache`] — what `darksil serve`
/// reports under `/v1/stats` and the sweep CLI prints after a run.
#[must_use]
pub fn factor_cache_stats() -> FactorCacheStats {
    FactorCache::global().stats()
}

// ---------------------------------------------------------------------------
// The SPD-solve entry point
// ---------------------------------------------------------------------------

/// Solves `A·x = b` by substitution through caller-resolved `factors`
/// (e.g. a thermal model solving hundreds of loads on one matrix holds
/// its own, skipping a per-solve digest and cache lookup), falling back
/// to the CG → restarted-CG → dense-LU chain.
///
/// `factors` of `None` (matrix unfactorable or not resolved) goes
/// straight to the chain. Factored solutions are residual-checked
/// against the default CG tolerance; on drift the chain takes over,
/// seeded from the factored iterate.
///
/// # Errors
///
/// The factored path itself never errors for well-posed inputs; it
/// declines and the chain takes over, which returns:
///
/// - [`NumericsError::NonFinite`] if the matrix or right-hand side
///   contains NaN or infinite entries (naming the offending position).
/// - [`NumericsError::DimensionMismatch`] for incompatible shapes.
/// - [`NumericsError::ConvergenceFailure`] or
///   [`NumericsError::SingularMatrix`] only when every stage, including
///   dense LU, failed.
pub fn solve_spd_factored(
    factors: Option<&SpdFactors>,
    a: &CsrMatrix,
    b: &[f64],
) -> Result<(Vec<f64>, SolveDiagnostics), NumericsError> {
    let _span = darksil_obs::span("numerics.solve_spd");
    #[allow(clippy::cast_precision_loss)]
    darksil_obs::observe("numerics.solve_rows", a.rows() as f64);

    let options = CgOptions::default();
    let mut drift_iterate: Option<Vec<f64>> = None;
    if let Some(factors) = factors.filter(|f| f.dimension() == b.len()) {
        let x = factors.solve(b)?;
        let residual = a.residual_norm(&x, b);
        let target = options.tolerance * norm2(b);
        if x.iter().all(|v| v.is_finite()) && residual <= target.max(f64::MIN_POSITIVE) {
            let diagnostics = SolveDiagnostics {
                stage: SolveStage::Factored,
                cg_iterations: 0,
                residual,
                fallbacks: 0,
            };
            record_diagnostics(&diagnostics);
            return Ok((x, diagnostics));
        }
        // Drift: hand the factored iterate to the chain as a seed —
        // it is almost certainly the best start available.
        darksil_obs::counter("numerics.factor.drift", 1);
        if x.iter().all(|v| v.is_finite()) {
            drift_iterate = Some(x);
        }
    }
    let result = solve_chain_from(a, b, drift_iterate.as_deref(), &options);
    if let Ok((_, diagnostics)) = &result {
        record_diagnostics(diagnostics);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    /// A W×H RC-grid Laplacian with a leak to the reference node — the
    /// shape of every thermal conductance matrix in this workspace.
    fn grid_laplacian(w: usize, h: usize) -> CsrMatrix {
        let n = w * h;
        let mut t = TripletMatrix::new(n, n);
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if x + 1 < w {
                    t.stamp_conductance(i, i + 1, 2.0);
                }
                if y + 1 < h {
                    t.stamp_conductance(i, i + w, 2.0);
                }
                t.stamp_to_reference(i, 0.5);
            }
        }
        t.to_csr()
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7) % 5) as f64 - 1.0).collect()
    }

    /// `a`'s factors from a test-local cache, as a caller would hold them.
    fn local_factors(a: &CsrMatrix) -> Option<Arc<SpdFactors>> {
        FactorCache::new(1).get_or_factor(a)
    }

    #[test]
    fn factored_solve_matches_robust_chain() {
        let a = grid_laplacian(8, 8);
        let b = rhs(64);
        let f = factor_spd(&a).expect("grid is SPD");
        let x = f.solve(&b).expect("solve succeeds");
        let (x_cg, _) = solve_spd_factored(None, &a, &b).expect("cg solves");
        for (a_, b_) in x.iter().zip(&x_cg) {
            assert!((a_ - b_).abs() < 1e-7, "{a_} vs {b_}");
        }
        assert!(a.residual_norm(&x, &b) < 1e-10 * norm2(&b).max(1.0));
    }

    #[test]
    fn ordering_is_a_permutation() {
        let a = grid_laplacian(6, 6);
        let perm = min_degree_order(&a);
        let mut seen = [false; 36];
        for &p in &perm {
            assert!(!seen[p], "duplicate index {p}");
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fill_in_stays_bounded_on_grids() {
        // Minimum degree on a W×H grid keeps fill modest; it must stay
        // far below the dense lower triangle.
        let a = grid_laplacian(12, 12);
        let f = factor_spd(&a).expect("grid is SPD");
        let n = 144;
        assert!(
            f.nnz_l() < n * 14,
            "excessive fill: {} entries in L",
            f.nnz_l()
        );
    }

    #[test]
    fn non_spd_matrix_is_rejected() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, -1.0);
        t.add(1, 1, -1.0);
        assert!(matches!(
            factor_spd(&t.to_csr()),
            Err(NumericsError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn asymmetric_matrix_is_rejected() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 2.0);
        t.add(0, 1, 1.0);
        t.add(1, 1, 2.0);
        assert!(matches!(
            factor_spd(&t.to_csr()),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn missing_diagonal_is_rejected() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        t.add(0, 0, 1.0);
        assert!(matches!(
            factor_spd(&t.to_csr()),
            Err(NumericsError::SingularMatrix { pivot: 1 })
        ));
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let f = factor_spd(&grid_laplacian(3, 3)).expect("grid is SPD");
        assert!(matches!(
            f.solve(&[1.0; 4]),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn cache_hits_after_first_factor_and_stays_bounded() {
        let cache = FactorCache::new(2);
        let a = grid_laplacian(4, 4);
        let b = grid_laplacian(5, 5);
        let c = grid_laplacian(6, 6);
        assert!(cache.get_or_factor(&a).is_some());
        assert!(cache.get_or_factor(&a).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        // Third distinct matrix evicts the least recently used.
        assert!(cache.get_or_factor(&b).is_some());
        assert!(cache.get_or_factor(&c).is_some());
        assert_eq!(cache.stats().entries, 2);
        // `a` was evicted: looking it up again is a miss that refactors.
        assert!(cache.get_or_factor(&a).is_some());
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn cache_remembers_unfactorable_matrices() {
        let cache = FactorCache::new(4);
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, -1.0);
        t.add(1, 1, -1.0);
        let bad = t.to_csr();
        assert!(cache.get_or_factor(&bad).is_none());
        assert!(cache.get_or_factor(&bad).is_none());
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn factored_solve_agrees_with_the_chain_and_reports_factored_stage() {
        let a = grid_laplacian(9, 9);
        let b = rhs(81);
        let factors = local_factors(&a);
        let (x, diag) = solve_spd_factored(factors.as_deref(), &a, &b).expect("solves");
        assert_eq!(diag.stage, SolveStage::Factored);
        assert_eq!(diag.cg_iterations, 0);
        let (x_cg, _) = solve_spd_factored(None, &a, &b).expect("cg solves");
        for (a_, b_) in x.iter().zip(&x_cg) {
            assert!((a_ - b_).abs() < 1e-7);
        }
    }

    #[test]
    fn factored_solve_falls_back_on_unfactorable_input() {
        // Negative definite: the factor path declines, dense LU rescues.
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, -1.0);
        t.add(1, 1, -1.0);
        let a = t.to_csr();
        let factors = local_factors(&a);
        assert!(factors.is_none());
        let (x, diag) = solve_spd_factored(factors.as_deref(), &a, &[3.0, 3.0]).expect("lu");
        assert_eq!(diag.stage, SolveStage::DenseLu);
        assert!((x[0] + 3.0).abs() < 1e-9);
    }

    #[test]
    fn factored_solve_rejects_nan_rhs() {
        let a = grid_laplacian(3, 3);
        let mut b = vec![1.0; 9];
        b[4] = f64::NAN;
        let factors = local_factors(&a);
        assert!(matches!(
            solve_spd_factored(factors.as_deref(), &a, &b),
            Err(NumericsError::NonFinite { .. })
        ));
    }

    #[test]
    fn digest_distinguishes_values_and_pattern() {
        let a = grid_laplacian(4, 4);
        let mut t = TripletMatrix::new(16, 16);
        for (r, c, v) in a.iter() {
            t.add(r, c, if r == c { v + 1.0e-12 } else { v });
        }
        assert_ne!(matrix_digest(&a), matrix_digest(&t.to_csr()));
        assert_eq!(matrix_digest(&a), matrix_digest(&grid_laplacian(4, 4)));
    }

    #[test]
    fn concurrent_lookups_factor_once() {
        let cache = std::sync::Arc::new(FactorCache::new(4));
        let a = grid_laplacian(10, 10);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = cache.clone();
                let a = &a;
                scope.spawn(move || {
                    assert!(cache.get_or_factor(a).is_some());
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.misses, 1, "exactly one thread factors");
        assert_eq!(s.hits, 3);
    }
}
