package sat

// This file implements DRAT-style proof logging for the CDCL solver.
// While solving, the solver appends every learned clause ("a"), every
// reduceDB deletion ("d"), and every clause added to an incremental
// session after logging started ("i") to a Proof. An UNSAT answer then
// carries a machine-checkable derivation: each "a" lemma is a reverse
// unit propagation (RUP) consequence of the original formula plus the
// preceding lemmas, so an independent checker (internal/certify) that
// knows nothing about CDCL can replay the proof with a dumb
// unit-propagator and confirm the verdict.
//
// Three logging sites make every UNSAT path self-certifying:
//
//   - learned clauses (first-UIP, possibly minimized) are RUP at learn
//     time — they are logged before they are attached;
//   - a root-level conflict logs the empty clause, the classic DRAT
//     terminator;
//   - an assumption failure logs the *core claim*: the clause
//     ¬a1 ∨ … ∨ ¬ak over the final-conflict core, which is RUP at that
//     moment (asserting the core assumptions and propagating reproduces
//     the conflict). The claim persists in the clause DB across later
//     solves and deletions, so a MUS extracted over many SolveAssuming
//     calls stays checkable against the finished proof.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// ProofOp is one proof step kind.
type ProofOp byte

// Proof step kinds.
const (
	// ProofAdd is a RUP lemma: implied by the original formula plus the
	// preceding accepted lemmas, checkable by unit propagation alone.
	ProofAdd ProofOp = 'a'
	// ProofDelete removes a previously present clause from the checker's
	// working set (logged by reduceDB).
	ProofDelete ProofOp = 'd'
	// ProofInput is a clause added to an incremental session after
	// logging started. It is trusted, not derived: the checker installs
	// it as an axiom, and callers must account for it when judging what
	// the proof proves.
	ProofInput ProofOp = 'i'
)

// Proof is a compact in-memory derivation log. Steps are stored flat
// (one byte of op plus a literal range per step) and guarded by a
// mutex, so a log may be read while its session runs. A step cap bounds
// memory on runaway solves; once hit, further appends are dropped and
// the proof is marked truncated (checkers must reject it).
type Proof struct {
	mu        sync.Mutex
	ops       []byte
	ends      []int32 // ends[i] = end offset of step i's literals in lits
	lits      []Lit
	capSteps  int // 0 = unlimited
	truncated bool
}

// NewProof returns an empty proof bounded to capSteps steps
// (0 = unlimited).
func NewProof(capSteps int) *Proof {
	return &Proof{capSteps: capSteps}
}

// Len reports the number of accepted steps.
func (p *Proof) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ops)
}

// Truncated reports whether the step cap was hit; a truncated proof is
// incomplete and must be rejected by checkers.
func (p *Proof) Truncated() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.truncated
}

// Step returns step i. The returned slice aliases the proof's storage
// and must not be mutated.
func (p *Proof) Step(i int) (ProofOp, []Lit) {
	p.mu.Lock()
	defer p.mu.Unlock()
	start := int32(0)
	if i > 0 {
		start = p.ends[i-1]
	}
	return ProofOp(p.ops[i]), p.lits[start:p.ends[i]]
}

// Append records one step outside the solver (tools and tests that
// construct or mutate proofs); it reports whether the step was accepted
// (false once the cap is hit). The literal slice is not retained.
func (p *Proof) Append(op ProofOp, lits []Lit) bool {
	return p.append(op, append([]Lit(nil), lits...))
}

// append records one step; it reports whether the step was accepted
// (false once the cap is hit).
func (p *Proof) append(op ProofOp, lits []Lit) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.appendLocked(op, lits)
}

func (p *Proof) appendLocked(op ProofOp, lits []Lit) bool {
	if p.capSteps > 0 && len(p.ops) >= p.capSteps {
		p.truncated = true
		return false
	}
	p.ops = append(p.ops, byte(op))
	p.lits = append(p.lits, lits...)
	p.ends = append(p.ends, int32(len(p.lits)))
	return true
}

// proofLine is the JSON-lines wire form of one step.
type proofLine struct {
	Op   string `json:"op"`
	Lits []int  `json:"lits"`
}

// WriteJSONL writes the proof as JSON lines, one step per line:
//
//	{"op":"a","lits":[1,-3]}
func (p *Proof) WriteJSONL(w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	start := int32(0)
	for i, op := range p.ops {
		lits := p.lits[start:p.ends[i]]
		start = p.ends[i]
		line := proofLine{Op: string(rune(op)), Lits: make([]int, len(lits))}
		for j, l := range lits {
			line.Lits[j] = int(l)
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadProofJSONL parses a proof in the WriteJSONL format.
func ReadProofJSONL(r io.Reader) (*Proof, error) {
	p := NewProof(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	n := 0
	for sc.Scan() {
		n++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var line proofLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return nil, fmt.Errorf("proof line %d: %w", n, err)
		}
		var op ProofOp
		switch line.Op {
		case "a":
			op = ProofAdd
		case "d":
			op = ProofDelete
		case "i":
			op = ProofInput
		default:
			return nil, fmt.Errorf("proof line %d: unknown op %q", n, line.Op)
		}
		lits := make([]Lit, len(line.Lits))
		for j, l := range line.Lits {
			if l == 0 {
				return nil, fmt.Errorf("proof line %d: zero literal", n)
			}
			lits[j] = Lit(l)
		}
		p.appendLocked(op, lits)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// logStep records a step in the proof. lits must be owned by the caller
// (not alias solver state that later mutates).
func (s *cdclState) logStep(op ProofOp, lits []Lit) {
	if s.proof != nil && s.proof.append(op, lits) {
		s.stats.ProofSteps++
	}
}

// logLemma records a just-derived clause (internal literals) as a RUP
// lemma.
func (s *cdclState) logLemma(lits []ilit) {
	if s.proof == nil {
		return
	}
	ext := make([]Lit, len(lits))
	for i, l := range lits {
		ext[i] = toExternal(l)
	}
	s.logStep(ProofAdd, ext)
}

// logEmptyLemma records the empty clause — the DRAT terminator.
func (s *cdclState) logEmptyLemma() {
	s.logStep(ProofAdd, nil)
}

// logCoreClaim records the clause ¬a1 ∨ … ∨ ¬ak over a final-conflict
// core: RUP at claim time, and the persistent witness that the core
// assumptions are jointly inconsistent with the clause set.
func (s *cdclState) logCoreClaim(core []Lit) {
	if s.proof == nil {
		return
	}
	neg := make([]Lit, len(core))
	for i, l := range core {
		neg[i] = l.Neg()
	}
	s.logStep(ProofAdd, neg)
}

// logDeleteClause records a reduceDB deletion.
func (s *cdclState) logDeleteClause(c cref) {
	if s.proof == nil {
		return
	}
	lits := s.ar.lits(c)
	ext := make([]Lit, len(lits))
	for i, l := range lits {
		ext[i] = toExternal(l)
	}
	s.logStep(ProofDelete, ext)
}
