package sat

// EnumerateModels returns up to limit satisfying assignments of f,
// distinct on the projection variables (nil projects onto all
// variables). After each model a blocking clause over the projection is
// added, so the enumeration never repeats a projected assignment.
// Auxiliary variables (e.g., from the ladder encoding) are typically
// excluded via the projection.
//
// Enumeration runs on one warm CDCL session: each blocking clause is a
// single AddClause and the re-solve keeps all learned clauses, variable
// activity, and saved phases — the growing formula is never re-solved
// from a cold start. The input formula is never mutated.
//
// limit ≤ 0 means "no limit"; enumeration is then bounded only by the
// projected model count, which can be exponential — callers should
// project and bound accordingly.
func EnumerateModels(f *Formula, project []int, limit int) [][]bool {
	models, _ := EnumerateModelsStats(f, project, limit)
	return models
}

// EnumerateModelsStats is EnumerateModels plus the total solver effort
// summed over every solve of the enumeration.
func EnumerateModelsStats(f *Formula, project []int, limit int) ([][]bool, Stats) {
	return EnumerateModelsOn(NewCDCL().StartIncremental(f), f, project, limit)
}

// EnumerateModelsOn is EnumerateModelsStats running on a caller-provided
// incremental session — typically one wrapped with Observe, so each
// enumeration re-solve is visible to the caller.
func EnumerateModelsOn(inc IncrementalSolver, f *Formula, project []int, limit int) ([][]bool, Stats) {
	if project == nil {
		project = make([]int, f.NumVars)
		for v := 1; v <= f.NumVars; v++ {
			project[v-1] = v
		}
	}
	var models [][]bool
	var total Stats
	for limit <= 0 || len(models) < limit {
		res := inc.SolveAssuming(nil)
		total = total.Add(res.Stats)
		if res.Status != Sat {
			break
		}
		model := make([]bool, len(res.Model))
		copy(model, res.Model)
		models = append(models, model)

		block := make(Clause, 0, len(project))
		for _, v := range project {
			if v < 1 || v >= len(model) {
				continue
			}
			if model[v] {
				block = append(block, Lit(-v))
			} else {
				block = append(block, Lit(v))
			}
		}
		if len(block) == 0 {
			break // empty projection: one model class only
		}
		if !inc.AddClause(block) {
			break // blocking clause closed the space at level 0
		}
	}
	return models, total
}

// CountModels counts satisfying assignments distinct on the projection,
// up to max (0 = unbounded).
func CountModels(f *Formula, project []int, max int) int {
	return len(EnumerateModels(f, project, max))
}
