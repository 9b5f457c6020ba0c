// Package diag is the diagnostic vocabulary the static checkers share:
// severities, the Diagnostic record, and the plan-* codes of the
// specification checker (internal/typecheck). It imports nothing from
// the engine, so the checkers that report plan-* findings
// (internal/typecheck, internal/certify) stay independent of GraphGen,
// the encoder and the solver. internal/lint re-exports all of it.
package diag

import (
	"encoding/json"
	"fmt"
)

// Severity classifies a diagnostic.
type Severity int

// Severities, in increasing order of gravity.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	switch s {
	case Info, Warning, Error:
		return json.Marshal(s.String())
	}
	return nil, fmt.Errorf("lint: cannot marshal severity %d", int(s))
}

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "info":
		*s = Info
	case "warning":
		*s = Warning
	case "error":
		*s = Error
	default:
		return fmt.Errorf("lint: unknown severity %q", name)
	}
	return nil
}

// The plan-* codes: a resolved installation that breaks a rule of the
// specification checker or a stack record's binding invariants. All
// four are errors.
const (
	// CodePlanConstraint reports a resolved installation whose chosen
	// instances violate a dependency constraint: a dependency not met by
	// exactly one linked instance of a subtype on the right machine, or
	// an installation that does not extend its partial specification.
	CodePlanConstraint = "plan-constraint"
	// CodePlanPort reports a resolved instance whose port values differ
	// from an independent re-derivation of the propagation semantics.
	CodePlanPort = "plan-port"
	// CodePlanClosure reports a resolved installation that is not
	// dependency-closed: an instance links to a target that is absent,
	// or sits on a different machine than its container chain implies.
	CodePlanClosure = "plan-closure"
	// CodePlanBinding reports a stack record binding that violates its
	// invariants: unknown instance, missing machine, malformed manifest
	// path, stale manifest text, or a daemon PID the monitor snapshot
	// says is dead.
	CodePlanBinding = "plan-binding"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	// Pos is the RDL source position ("file:line:col") of the subject,
	// when the library was loaded from RDL sources; empty otherwise.
	Pos string `json:"pos,omitempty"`
	// Subject names what the diagnostic is about: a resource key or an
	// instance ID.
	Subject string `json:"subject,omitempty"`
	Message string `json:"message"`
}

// String renders the diagnostic in compiler style:
//
//	lib.rdl:4:1: error[dead-resource] resource "Web 1.0" can never be deployed: ...
func (d Diagnostic) String() string {
	if d.Pos != "" {
		return fmt.Sprintf("%s: %s[%s] %s", d.Pos, d.Severity, d.Code, d.Message)
	}
	return fmt.Sprintf("%s[%s] %s", d.Severity, d.Code, d.Message)
}
