package main

// engage verify: the independent certification front end. Every claim
// the configuration pipeline makes — SAT models, UNSAT proofs, MUS
// conflict stories, resolved plans, stack records — is re-checked by
// internal/certify, which trusts nothing but a dumb unit propagator and
// direct evaluation. Any refuted claim exits nonzero.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"engage/internal/certify"
	"engage/internal/config"
	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/lint"
	"engage/internal/resource"
	"engage/internal/sat"
	"engage/internal/spec"
	"engage/internal/stack"
	"engage/internal/telemetry"
)

// verifyClaim is one certified or refuted claim in the report.
type verifyClaim struct {
	Claim   string `json:"claim"`
	Verdict string `json:"verdict"` // "certified" or "refuted"
	Detail  string `json:"detail,omitempty"`
}

// verifyReport accumulates claims and plan diagnostics.
type verifyReport struct {
	Claims      []verifyClaim     `json:"claims"`
	Diagnostics []lint.Diagnostic `json:"diagnostics"`
}

func (r *verifyReport) certified(sp *telemetry.Span, claim, detail string, args ...any) {
	r.record(sp, claim, "certified", fmt.Sprintf(detail, args...))
}

func (r *verifyReport) refuted(sp *telemetry.Span, claim, detail string, args ...any) {
	r.record(sp, claim, "refuted", fmt.Sprintf(detail, args...))
}

func (r *verifyReport) record(sp *telemetry.Span, claim, verdict, detail string) {
	r.Claims = append(r.Claims, verifyClaim{Claim: claim, Verdict: verdict, Detail: detail})
	sp.Event("certify.claim").Str("claim", claim).Str("verdict", verdict).Emit()
}

func (r *verifyReport) planDiags(sp *telemetry.Span, claim string, diags []lint.Diagnostic) {
	r.Diagnostics = append(r.Diagnostics, diags...)
	if len(diags) == 0 {
		r.certified(sp, claim, "all invariants hold")
	} else {
		r.refuted(sp, claim, "%d violation(s)", len(diags))
	}
}

func (r *verifyReport) failed() bool {
	for _, c := range r.Claims {
		if c.Verdict != "certified" {
			return true
		}
	}
	return false
}

func cmdVerify(args []string, out *os.File) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	rdlFiles := fs.String("rdl", "", "comma-separated RDL files (default: bundled library)")
	partialPath := fs.String("partial", "", "partial specification: certify its solve verdict end to end")
	fullPath := fs.String("full", "", "resolved full specification to re-validate without the solver")
	stackPath := fs.String("stack", "", "stack record (JSON) to verify bindings and desired state of")
	proofPath := fs.String("proof", "", "DRAT-style proof (JSON lines) to replay against -cnf")
	cnfPath := fs.String("cnf", "", "DIMACS CNF formula the -proof claims unsatisfiable")
	dumpProof := fs.String("dump-proof", "", "write the solver's proof (JSON lines) and formula (DIMACS, .cnf suffix) here for offline replay")
	jsonOut := fs.Bool("json", false, "emit the verification report as JSON")
	tracePath := fs.String("trace", "", "write a JSON-lines telemetry trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *partialPath == "" && *fullPath == "" && *stackPath == "" && *proofPath == "" {
		return fmt.Errorf("verify: nothing to verify (want -partial, -full, -stack, or -proof)")
	}
	if (*proofPath == "") != (*cnfPath == "") {
		return fmt.Errorf("verify: -proof and -cnf go together")
	}

	var tr *telemetry.Tracer
	var closeTrace func() error
	if *tracePath != "" {
		var err error
		if tr, closeTrace, err = openTrace(*tracePath, nil); err != nil {
			return err
		}
	}
	sp := tr.Span("certify.check")

	rep := &verifyReport{}
	if *proofPath != "" {
		verifyProofFile(sp, rep, *cnfPath, *proofPath)
	}

	var reg *resource.Registry
	if *partialPath != "" || *fullPath != "" || *stackPath != "" {
		var err error
		if reg, _, err = loadRegistry(*rdlFiles, tr); err != nil {
			return err
		}
	}

	var partial *spec.Partial
	if *partialPath != "" {
		var err error
		if partial, err = loadPartial(*partialPath); err != nil {
			return err
		}
	}

	switch {
	case *fullPath != "":
		full, err := loadFull(*fullPath)
		if err != nil {
			return err
		}
		rep.planDiags(sp, "plan "+*fullPath, certify.CheckPlan(reg, partial, full))
	case *partialPath != "":
		if err := verifySolve(sp, rep, reg, partial, *partialPath, *dumpProof, tr); err != nil {
			return err
		}
	}

	if *stackPath != "" {
		st, err := loadStack(*stackPath)
		if err != nil {
			return err
		}
		rep.planDiags(sp, "stack record "+*stackPath, certify.CheckStack(st, nil))
		rep.planDiags(sp, "stack desired state "+*stackPath, certify.CheckPlan(reg, partial, st.Desired))
	}

	sp.Int("claims", int64(len(rep.Claims))).Bool("failed", rep.failed()).End()
	if closeTrace != nil {
		if err := closeTrace(); err != nil {
			return err
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if rep.Diagnostics == nil {
			rep.Diagnostics = []lint.Diagnostic{}
		}
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		for _, d := range rep.Diagnostics {
			fmt.Fprintln(out, d)
		}
		for _, c := range rep.Claims {
			if c.Verdict == "certified" {
				fmt.Fprintf(out, "certified: %s (%s)\n", c.Claim, c.Detail)
			} else {
				fmt.Fprintf(out, "REFUTED: %s (%s)\n", c.Claim, c.Detail)
			}
		}
	}
	if rep.failed() {
		return fmt.Errorf("verify: refuted claims")
	}
	return nil
}

// verifyProofFile replays a standalone proof against a DIMACS formula.
func verifyProofFile(sp *telemetry.Span, rep *verifyReport, cnfPath, proofPath string) {
	claim := fmt.Sprintf("UNSAT proof %s for %s", proofPath, cnfPath)
	cnfData, err := os.ReadFile(cnfPath)
	if err != nil {
		rep.refuted(sp, claim, "%v", err)
		return
	}
	f, err := sat.ParseDimacs(string(cnfData))
	if err != nil {
		rep.refuted(sp, claim, "%v", err)
		return
	}
	pf, err := os.Open(proofPath)
	if err != nil {
		rep.refuted(sp, claim, "%v", err)
		return
	}
	defer pf.Close()
	proof, err := sat.ReadProofJSONL(pf)
	if err != nil {
		rep.refuted(sp, claim, "%v", err)
		return
	}
	st, err := certify.CheckUnsat(f, proof)
	if err != nil {
		rep.refuted(sp, claim, "%v", err)
		return
	}
	rep.certified(sp, claim, "%d lemmas RUP-checked, %d propagations", st.Lemmas, st.Propagations)
}

// verifySolve certifies a partial specification's solve verdict: a SAT
// answer by model evaluation plus solver-free plan validation of the
// configured result, an UNSAT answer by replaying the solver's proof
// and spot-checking the minimal core's story.
func verifySolve(sp *telemetry.Span, rep *verifyReport, reg *resource.Registry, partial *spec.Partial, label, dumpProof string, tr *telemetry.Tracer) error {
	expl := lint.ExplainUnsat(reg, partial, lint.Options{Tracer: tr})
	if expl == nil {
		// Satisfiable (or invalid — Configure will say). Certify the
		// model directly, then the configured plan.
		full, err := config.New(reg).Configure(partial)
		if err != nil {
			return err
		}
		certifyModel(sp, rep, reg, partial, label)
		rep.planDiags(sp, "configured plan for "+label, certify.CheckPlan(reg, partial, full))
		return nil
	}
	claim := "unsat story for " + label
	cert := expl.Cert
	if dumpProof != "" {
		if err := writeProofArtifacts(dumpProof, cert); err != nil {
			return err
		}
	}
	spot, st, err := certify.CheckMUS(cert.Formula, cert.Proof, cert.MUS, cert.Witnesses)
	if err != nil {
		rep.refuted(sp, claim, "%v", err)
		return nil
	}
	rep.certified(sp, claim, "%d-constraint MUS certified (%d lemmas, %d/%d minimality witnesses)",
		len(cert.MUS), st.Lemmas, spot, len(cert.MUS))
	return nil
}

// certifyModel re-solves the spec problem once and checks the model by
// direct clause evaluation.
func certifyModel(sp *telemetry.Span, rep *verifyReport, reg *resource.Registry, partial *spec.Partial, label string) {
	g, err := hypergraph.Generate(reg, partial)
	if err != nil {
		rep.refuted(sp, "model for "+label, "%v", err)
		return
	}
	ap := constraint.EncodeAssumable(g, constraint.Pairwise)
	res := sat.NewCDCL().StartIncremental(ap.Formula).SolveAssuming(ap.Selectors)
	if res.Status != sat.Sat {
		rep.refuted(sp, "model for "+label, "re-solve returned %v", res.Status)
		return
	}
	if err := certify.CheckModelAssuming(ap.Formula, res.Model, ap.Selectors); err != nil {
		rep.refuted(sp, "model for "+label, "%v", err)
		return
	}
	rep.certified(sp, "model for "+label, "satisfies all %d clauses", len(ap.Formula.Clauses))
}

// writeProofArtifacts dumps a certificate's proof as JSON lines plus a
// self-contained DIMACS formula (path + ".cnf"): the encoding with the
// MUS constraints pinned as unit clauses, so the pair replays
// end-to-end with `engage verify -proof <path> -cnf <path>.cnf`. (The
// bare encoding is satisfiable — the conflict only exists under the
// MUS assumptions. RUP is monotone in the clause database, so adding
// the units keeps every lemma checkable and turns the solver's
// core-claim lemma into a root-level contradiction.)
func writeProofArtifacts(path string, cert *lint.UnsatCertificate) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cert.Proof.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	pinned := sat.NewFormula(cert.Formula.NumVars)
	pinned.Clauses = append(pinned.Clauses, cert.Formula.Clauses...)
	for _, m := range cert.MUS {
		pinned.AddUnit(m)
	}
	return os.WriteFile(path+".cnf", []byte(sat.Dimacs(pinned)), 0o644)
}

func loadFull(path string) (*spec.Full, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f spec.Full
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

func loadStack(path string) (*stack.Stack, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return stack.ReadStack(f)
}
