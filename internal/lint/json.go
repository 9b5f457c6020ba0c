package lint

import (
	"encoding/json"
	"fmt"
	"io"
)

// reportJSON is the versioned on-the-wire envelope. The severity counts
// are redundant with the diagnostics list; the reader recomputes and
// cross-checks them.
type reportJSON struct {
	Version     int               `json:"version"`
	Library     string            `json:"library,omitempty"`
	Spec        string            `json:"spec,omitempty"`
	Errors      int               `json:"errors"`
	Warnings    int               `json:"warnings"`
	Infos       int               `json:"infos"`
	Diagnostics []Diagnostic      `json:"diagnostics"`
	Unsat       *UnsatExplanation `json:"unsat,omitempty"`
}

// jsonVersion is the current envelope version.
const jsonVersion = 1

// WriteJSON writes the report in the machine-readable envelope.
func (r *Report) WriteJSON(w io.Writer) error {
	env := reportJSON{
		Version:     jsonVersion,
		Library:     r.Library,
		Spec:        r.Spec,
		Errors:      r.Count(Error),
		Warnings:    r.Count(Warning),
		Infos:       r.Count(Info),
		Diagnostics: r.Diagnostics,
		Unsat:       r.Unsat,
	}
	if env.Diagnostics == nil {
		env.Diagnostics = []Diagnostic{}
	}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadReport parses and validates a JSON report: the envelope version
// must be current, every diagnostic code must be known and carry its
// fixed severity, the severity counts must match the diagnostics, and a
// spec-unsat diagnostic and the Unsat explanation must come together.
func ReadReport(rd io.Reader) (*Report, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var env reportJSON
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("lint: invalid report: %v", err)
	}
	if env.Version != jsonVersion {
		return nil, fmt.Errorf("lint: unsupported report version %d (want %d)", env.Version, jsonVersion)
	}
	r := &Report{
		Library:     env.Library,
		Spec:        env.Spec,
		Diagnostics: env.Diagnostics,
		Unsat:       env.Unsat,
	}
	for i, d := range r.Diagnostics {
		want, known := codeSeverity[d.Code]
		if !known {
			return nil, fmt.Errorf("lint: diagnostic %d has unknown code %q", i, d.Code)
		}
		if d.Severity != want {
			return nil, fmt.Errorf("lint: diagnostic %d (%s) has severity %s, want %s", i, d.Code, d.Severity, want)
		}
		if d.Message == "" {
			return nil, fmt.Errorf("lint: diagnostic %d (%s) has no message", i, d.Code)
		}
	}
	if env.Errors != r.Count(Error) || env.Warnings != r.Count(Warning) || env.Infos != r.Count(Info) {
		return nil, fmt.Errorf("lint: severity counts (%d/%d/%d) do not match diagnostics (%d/%d/%d)",
			env.Errors, env.Warnings, env.Infos, r.Count(Error), r.Count(Warning), r.Count(Info))
	}
	hasUnsatDiag := len(r.ByCode(CodeSpecUnsat)) > 0
	if hasUnsatDiag != (r.Unsat != nil) {
		return nil, fmt.Errorf("lint: spec-unsat diagnostic and unsat explanation must come together")
	}
	if r.Unsat != nil && len(r.Unsat.Core) > r.Unsat.RawCoreSize {
		return nil, fmt.Errorf("lint: MUS larger than the raw core (%d > %d)", len(r.Unsat.Core), r.Unsat.RawCoreSize)
	}
	return r, nil
}
