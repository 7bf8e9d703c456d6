package core

import (
	"math"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/query"
)

// Improved is Verdict's output for one snippet: the improved answer and
// improved error (Definition in §2.1), plus diagnostics the experiments
// report.
type Improved struct {
	// Answer and Err are θ̂ and β̂ — the model-based values when the model
	// passed validation, the raw values otherwise.
	Answer float64
	Err    float64
	// UsedModel reports whether the model-based answer survived validation.
	UsedModel bool
	// ModelAnswer/ModelErr are θ̈ and β̈ (Eq. 12) regardless of validation,
	// for diagnostics; they equal the raw values when no model exists.
	ModelAnswer float64
	ModelErr    float64
	// PriorPrediction is the GP prediction from past snippets alone (the θ
	// of Eq. 11) — what the model expected before seeing the raw answer.
	PriorPrediction float64
	// Gamma2 is γ² of Eq. 11: the model's predictive variance.
	Gamma2 float64
}

// inferOn computes the improved answer for a new snippet given its raw
// (θ_{n+1}, β_{n+1}), using the block forms of Eq. 11–12:
//
//	γ² = κ̄² − kᵀ Σ_n⁻¹ k
//	θ' = μ̄_{n+1} + kᵀ Σ_n⁻¹ (θ_n − μ_n)
//	θ̈  = (β²·θ' + γ²·θ_raw) / (β² + γ²)
//	β̈² = β²·γ² / (β² + γ²)
//
// followed by Appendix B's model validation. With Σ_n = L·Lᵀ and the
// snapshot's r = L⁻¹(θ_n − μ_n), one forward substitution z = L⁻¹k gives
// kᵀΣ_n⁻¹k = z·z and kᵀΣ_n⁻¹(θ_n − μ_n) = z·r: O(n²) per snippet. k is
// assembled in the factor's row order, which need not be slot order.
//
// It reads only the immutable published inferState, so any number of
// sessions can infer concurrently while the single writer records into the
// master synopsis and republishes.
func inferOn(st *inferState, sn *query.Snippet, raw query.ScalarEstimate, cfg Config) Improved {
	return inferOnMemo(st, sn, raw, cfg, nil)
}

// inferOnMemo is inferOn with an optional covariance-factor memo (a
// standing plan carries one per snippet; see planInfer). The memo only
// short-circuits the per-dimension integral factors of the covariance
// vector k and the self-variance κ̄², each guarded by an exact input
// signature (kernel.CovarianceMemo), so the result is bit-identical to
// the uncached computation — the replay-equality audit every pushed
// standing Result undergoes exercises exactly this claim.
func inferOnMemo(st *inferState, sn *query.Snippet, raw query.ScalarEstimate, cfg Config, mem *snippetMemo) Improved {
	out := Improved{
		Answer:      raw.Value,
		Err:         raw.StdErr,
		ModelAnswer: raw.Value,
		ModelErr:    raw.StdErr,
	}
	if st == nil || len(st.entries) == 0 {
		return out // empty synopsis: Theorem 1's equality case
	}
	if st.chol == nil {
		return out // factorization unavailable (degenerate Σ): raw passthrough
	}

	z := make([]float64, len(st.order))
	var pairs []kernel.PairMemo
	var self *kernel.PairMemo
	if mem != nil {
		pairs, self = mem.pairsFor(len(st.entries)), &mem.self
	}
	for row, slot := range st.order {
		e := &st.entries[slot]
		if pairs != nil {
			z[row] = kernel.CovarianceMemo(e.sn, sn, st.params, &pairs[slot])
		} else {
			z[row] = kernel.Covariance(e.sn, sn, st.params)
		}
	}
	// Prior variance of θ̄_{n+1}: kernel self-covariance plus the
	// finite-population nugget the engine reported for this snippet.
	kappa2 := kernel.CovarianceMemo(sn, sn, st.params, self) + raw.PopErr*raw.PopErr

	if err := st.chol.ForwardInPlace(z); err != nil {
		return out
	}
	gamma2 := kappa2 - linalg.Dot(z, z)
	if gamma2 < 0 {
		gamma2 = 0 // numerical floor; Σ_n ⪰ exact-answer covariance
	}
	prior := kernel.PriorMean(sn, st.mu) + linalg.Dot(z, st.r)
	out.PriorPrediction = prior
	out.Gamma2 = gamma2

	beta2 := raw.StdErr * raw.StdErr
	if math.IsInf(beta2, 0) || beta2 >= math.MaxFloat64 {
		// The AQP engine had nothing: the model alone answers, with γ as
		// the error (the β→∞ limit of Eq. 12).
		out.ModelAnswer = prior
		out.ModelErr = math.Sqrt(gamma2)
	} else {
		denom := beta2 + gamma2
		if denom == 0 {
			// Both exact: keep the raw answer (β̂ = β = 0).
			return out
		}
		out.ModelAnswer = (beta2*prior + gamma2*raw.Value) / denom
		out.ModelErr = math.Sqrt(beta2 * gamma2 / denom)
	}

	if cfg.DisableValidation || validate(sn, raw, out, cfg) {
		out.Answer = out.ModelAnswer
		out.Err = out.ModelErr
		out.UsedModel = true
	}
	return out
}

// validate implements Appendix B: reject negative FREQ estimates, and
// reject models whose likely region (θ̈ ± α_{δv}·β_raw) excludes the raw
// answer.
func validate(sn *query.Snippet, raw query.ScalarEstimate, res Improved, cfg Config) bool {
	if sn.Kind == query.FreqAgg && res.ModelAnswer < 0 {
		return false
	}
	if math.IsInf(raw.StdErr, 0) || raw.StdErr >= math.MaxFloat64 {
		// No raw information to contradict the model.
		return true
	}
	if raw.StdErr == 0 {
		// Exact raw answer: model must agree exactly to add anything;
		// Eq. 12 already returns the raw answer, so accept.
		return true
	}
	t := cfg.validationMultiplier() * raw.StdErr
	return math.Abs(raw.Value-res.ModelAnswer) <= t
}

// ErrorBound converts an Improved result into the half-width of the
// δ-confidence interval, clamping FREQ intervals at zero per Appendix B.
func ErrorBound(sn *query.Snippet, res Improved, cfg Config) (lo, hi float64) {
	cfg = cfg.withDefaults()
	half := cfg.confidenceMultiplier() * res.Err
	lo, hi = res.Answer-half, res.Answer+half
	if sn.Kind == query.FreqAgg && lo < 0 {
		lo = 0
	}
	return lo, hi
}
