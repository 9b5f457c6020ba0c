package sat

// PortfolioResult is SolvePortfolio's answer.
type PortfolioResult struct {
	Result  Result // Stats are the session's total, loading included
	session *Incremental
}

// Session returns the warm session the solve ran on: learned clauses,
// activity and phases as the search left them, ready for CanonicalModel.
func (p *PortfolioResult) Session() *Incremental { return p.session }

// TotalStats reports the solve's effort, loading included — what
// CDCL.Solve reports for the same formula.
func (p *PortfolioResult) TotalStats() Stats { return p.Result.Stats }

// SolvePortfolio solves f once on a fresh CDCL session; n is ignored.
// The name stays only while the benchmark binds it, and goes when
// ROADMAP item 1 unpins it. f is not mutated.
func SolvePortfolio(f *Formula, n int) PortfolioResult {
	in := NewCDCL().StartIncremental(f).(*Incremental)
	res := in.SolveAssuming(nil)
	res.Stats = in.TotalStats()
	return PortfolioResult{Result: res, session: in}
}
