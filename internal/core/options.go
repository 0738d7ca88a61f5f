package core

import (
	"fmt"
	"time"

	"gebe/internal/bigraph"
	"gebe/internal/dense"
	"gebe/internal/obs"
	"gebe/internal/pmf"
	"gebe/internal/sparse"
)

// Options configures the GEBE family of solvers. The zero value is not
// usable — K must be positive; every other field has a paper-default
// filled in by withDefaults.
type Options struct {
	// K is the embedding dimensionality (the paper uses 128).
	K int
	// PMF selects the GEBE instantiation (§2.4). Default: Poisson(λ=1),
	// the configuration the paper found strongest.
	PMF pmf.PMF
	// Tau is the maximum path half-length for GEBE's truncated H
	// (default 20, the paper's practical setting).
	Tau int
	// Iters is the KSI sweep budget t (default 200).
	Iters int
	// Tol is the KSI subspace-convergence tolerance (default 1e-7).
	Tol float64
	// Lambda is the Poisson rate for GEBE^p (default 1).
	Lambda float64
	// Epsilon is the randomized-SVD error threshold for GEBE^p
	// (default 0.1). It sets the Krylov depth q = ⌈ln(|V|+2)/(4√ε)⌉, but
	// the basis is capped at 6·(k+8) columns, so q ≤ 5. Every ε below
	// (ln(|V|+2)/16)² therefore gives the same solve: at |V| ≈ 2500 that
	// is every ε ≲ 0.24, the default included.
	Epsilon float64
	// Seed drives every random choice; equal seeds give equal outputs.
	Seed uint64
	// Threads caps SpMM parallelism. Default 1, matching the paper's
	// single-thread evaluation protocol.
	Threads int
	// SpMM tunes the sparse kernel engine behind every W product: the
	// nonzero-count parallelism gate and the kernel flavor. The zero
	// value selects the shape-aware defaults; SpMM.Threads is ignored —
	// the Threads field above governs parallelism.
	SpMM sparse.Tuning
	// Dense tunes the dense engine behind every QR and block product
	// (KSI's per-sweep orthonormalization and subspace residual, GEBE^p's
	// blockwise and global QR and projection): the multiply-add
	// parallelism gate and the kernel flavor. The zero value selects the
	// register-blocked defaults; Dense.Threads is ignored — the Threads
	// field above governs parallelism.
	Dense dense.Tuning
	// Deadline optionally bounds solver runtime (cooperative, checked per
	// KSI sweep, per randomized-SVD Krylov block, and per σ₁ power
	// iteration); a zero value means no limit. Every solver that hits it —
	// GEBE, GEBE^p, MHP-BNE and MHS-BNE alike — returns
	// budget.ErrExceeded, mirroring the paper's hard cutoff protocol.
	Deadline time.Time
	// StopWindow is the sliding window (in sweeps) the adaptive KSI
	// stopping controller uses to estimate residual decay; 0 selects 16.
	StopWindow int
	// StopFlatness is the per-sweep residual decay rate at or above which
	// the controller declares stagnation and exits early; 0 selects 0.99.
	// Must lie in (0,1).
	StopFlatness float64
	// NoAdaptiveStop disables the adaptive KSI stopping controller,
	// restoring the fixed Iters/Tol/Deadline stopping behavior.
	NoAdaptiveStop bool
	// WarmStart, when non-nil, seeds the iterative solver from a previous
	// embedding of (a prior version of) the same graph instead of a random
	// block: GEBE/MHP-BNE/MHS-BNE warm-start KSI from the embedding rows
	// (U for the left side, V for MHS-BNE's right side), GEBE^p seeds its
	// randomized-SVD block from U and V. Dimension changes are tolerated —
	// new vertices and extra embedding columns are padded (see
	// linalg/warmstart.go) — and any column scaling is irrelevant because
	// the block is re-orthonormalized. On a mildly perturbed graph the
	// adaptive stopping controller then converges in a handful of sweeps;
	// the saving is reported in Embedding.SweepsSaved and a "warm_start"
	// trace span. The embedding is only read.
	WarmStart *Embedding
	// NoScale disables the spectral scaling of W (division by σ₁). The
	// scaling keeps e^{λσ²} finite for arbitrarily weighted graphs (see
	// DESIGN.md §3.5); turn it off only for tiny hand-built graphs such as
	// the paper's running example.
	NoScale bool
	// Logger receives structured solver telemetry: run begin/end at info
	// level, per-sweep residuals and phase timings at debug level. nil
	// falls back to the process-wide obs.Default(), which is disabled
	// unless a command installed one (-v/-vv), so the zero value is silent
	// and free.
	Logger *obs.Logger
	// Trace, when non-nil, collects a nested phase-span tree (σ₁
	// estimation, KSI sweeps, SVD blocks, embedding realization) for this
	// run. nil traces nothing; commands pass the trace their -trace flag
	// created (obs.CLI.Trace).
	Trace *obs.Trace
	// Metrics receives solver counters/gauges/histograms. nil falls back
	// to obs.DefaultRegistry(), the process-wide registry served by
	// -debug-addr.
	Metrics *obs.Registry
	// Progress, when non-nil, is invoked after every KSI sweep and every
	// randomized-SVD block step — the hook UIs and adaptive controllers
	// build on.
	Progress func(obs.Progress)
}

// obsRun resolves the per-run observability sinks, falling back to the
// process-wide logger and registry when those are nil. The trace has no
// fallback.
func (o Options) obsRun() *obs.Run {
	log := o.Logger
	if log == nil {
		log = obs.Default()
	}
	reg := o.Metrics
	if reg == nil {
		reg = obs.DefaultRegistry()
	}
	return &obs.Run{Log: log, Trace: o.Trace, Metrics: reg, Progress: o.Progress}
}

func (o Options) withDefaults() Options {
	if o.PMF == nil {
		o.PMF = pmf.NewPoisson(1)
	}
	if o.Tau == 0 {
		o.Tau = 20
	}
	if o.Iters == 0 {
		o.Iters = 200
	}
	if o.Tol == 0 {
		o.Tol = 1e-7
	}
	if o.Lambda == 0 {
		o.Lambda = 1
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.1
	}
	if o.Threads == 0 {
		o.Threads = 1
	}
	return o
}

func (o Options) validate(g *bigraph.Graph, needBothSides bool) error {
	if o.K <= 0 {
		return fmt.Errorf("core: embedding dimensionality K must be positive, got %d", o.K)
	}
	if g.NumEdges() == 0 {
		return fmt.Errorf("core: graph has no edges")
	}
	if o.K > g.NU {
		return fmt.Errorf("core: K=%d exceeds |U|=%d", o.K, g.NU)
	}
	if needBothSides && o.K > g.NV {
		return fmt.Errorf("core: K=%d exceeds |V|=%d (GEBE^p factorizes W and needs K <= min(|U|,|V|))", o.K, g.NV)
	}
	if o.Tau < 0 {
		return fmt.Errorf("core: Tau must be non-negative, got %d", o.Tau)
	}
	if o.Iters < 0 {
		return fmt.Errorf("core: Iters must be non-negative, got %d", o.Iters)
	}
	if o.Tol < 0 {
		return fmt.Errorf("core: Tol must be non-negative, got %g", o.Tol)
	}
	if o.Threads < 0 {
		return fmt.Errorf("core: Threads must be non-negative, got %d", o.Threads)
	}
	if o.Lambda <= 0 {
		return fmt.Errorf("core: Lambda must be positive, got %g", o.Lambda)
	}
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		return fmt.Errorf("core: Epsilon must lie in (0,1), got %g", o.Epsilon)
	}
	if o.StopWindow < 0 {
		return fmt.Errorf("core: StopWindow must be non-negative, got %d", o.StopWindow)
	}
	if o.StopFlatness < 0 || o.StopFlatness >= 1 {
		return fmt.Errorf("core: StopFlatness must lie in [0,1), got %g", o.StopFlatness)
	}
	if o.WarmStart != nil && o.WarmStart.U == nil {
		return fmt.Errorf("core: WarmStart embedding has no U matrix")
	}
	if err := o.SpMM.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := o.Dense.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// spmm merges the solver thread cap into the SpMM tuning, the form the
// sparse engine consumes.
func (o Options) spmm() sparse.Tuning {
	t := o.SpMM
	t.Threads = o.Threads
	return t
}

// dn merges the solver thread cap into the dense tuning, the form the
// dense engine consumes.
func (o Options) dn() dense.Tuning {
	t := o.Dense
	t.Threads = o.Threads
	return t
}

// Embedding is the output of a BNE solver: one k-dimensional vector per
// node on each side, plus solver diagnostics.
type Embedding struct {
	// U and V hold the embedding vectors row-wise: U is |U|×k, V is |V|×k.
	U, V *dense.Matrix
	// Values holds the top-k eigenvalue estimates of (scaled) H.
	Values []float64
	// Method identifies the solver ("gebe-poisson", "gebep", ...).
	Method string
	// Sweeps is the number of KSI sweeps used (0 for GEBE^p).
	Sweeps int
	// SweepsSaved is the part of the sweep budget left unused (KSI early
	// exit or convergence before the budget; 0 for GEBE^p).
	SweepsSaved int
	// Converged reports KSI convergence (always true for GEBE^p).
	Converged bool
	// StopReason explains why KSI stopped sweeping ("converged",
	// "stagnated", "tol-unreachable", "sweep-budget"; "converged" for
	// GEBE^p, whose SVD always runs to completion).
	StopReason string
	// SigmaScale is the σ₁ estimate W was divided by (1 when unscaled).
	SigmaScale float64
	// WarmStarted reports that the solve was seeded from a previous
	// embedding (Options.WarmStart), persisted as "#meta warm_start" so a
	// written embedding records its provenance.
	WarmStarted bool

	// Shard identity, set when this embedding is one item-side shard of a
	// larger embedding (internal/shard, cmd/gebe-shard): the file holds
	// the full U side but only V rows [ShardOffset, ShardOffset+V.Rows)
	// of a ShardTotal-item embedding — shard ShardIndex of ShardCount.
	// ShardCount == 0 means unsharded; the fields persist as one
	// "#meta shard" line so a shard file is self-describing and the
	// serving layer can remap global item ids without side channels.
	ShardIndex  int
	ShardCount  int
	ShardOffset int
	ShardTotal  int
}

// Sharded reports whether this embedding is an item-side shard of a
// larger embedding.
func (e *Embedding) Sharded() bool { return e.ShardCount > 0 }

// K returns the embedding dimensionality.
func (e *Embedding) K() int { return e.U.Cols }

// Score returns the association strength U[u]·V[v] used for ranking in
// downstream tasks (§2.5).
func (e *Embedding) Score(u, v int) float64 {
	return dense.Dot(e.U.Row(u), e.V.Row(v))
}
