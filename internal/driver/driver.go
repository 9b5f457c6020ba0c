// Package driver implements Engage resource drivers (§5.1 of the
// paper): state machines that manage the lifecycle of resource
// instances. A driver is a state machine (Q, uninstalled, inactive,
// active, A, δ) with guarded actions between states; guards are
// conjunctions of basic-state predicates ↑s ("all upstream dependencies
// are in state s") and ↓s ("all downstream dependents are in state s").
// Actions are implemented in the host language (Go here, Python in the
// paper) and mutate the simulated machine.
package driver

import (
	"fmt"
	"sort"
	"time"

	"engage/internal/machine"
	"engage/internal/pkgmgr"
	"engage/internal/spec"
)

// State is a driver state. Drivers may define extra states, but every
// driver includes the three basic states.
type State string

// The basic states (§5.1).
const (
	Uninstalled State = "uninstalled"
	Inactive    State = "inactive"
	Active      State = "active"
)

// Direction selects which neighbours a basic-state predicate ranges
// over.
type Direction int

// Predicate directions.
const (
	Upstream   Direction = iota // ↑s: all instances this one depends on
	Downstream                  // ↓s: all instances depending on this one
)

func (d Direction) String() string {
	if d == Upstream {
		return "↑"
	}
	return "↓"
}

// Pred is a basic-state predicate: ↑s or ↓s.
type Pred struct {
	Dir   Direction
	State State
}

// String renders e.g. "↑active".
func (p Pred) String() string { return p.Dir.String() + string(p.State) }

// Guard is a conjunction of predicates; the empty guard is true.
type Guard []Pred

// String renders the guard.
func (g Guard) String() string {
	if len(g) == 0 {
		return "true"
	}
	s := ""
	for i, p := range g {
		if i > 0 {
			s += " ∧ "
		}
		s += p.String()
	}
	return s
}

// GuardEnv supplies the neighbour states needed to evaluate guards; the
// deployment engine implements it.
type GuardEnv interface {
	// NeighbourStates returns the states of the instance's upstream
	// dependencies or downstream dependents.
	NeighbourStates(id string, dir Direction) []State
}

// rank orders the basic states: uninstalled < inactive < active.
// Non-basic states have no rank.
func rank(s State) (int, bool) {
	switch s {
	case Uninstalled:
		return 0, true
	case Inactive:
		return 1, true
	case Active:
		return 2, true
	default:
		return 0, false
	}
}

// holds evaluates one predicate against one neighbour state. Basic-state
// predicates use ordering semantics: ↑s holds when every upstream state
// is at least s, ↓s when every downstream state is at most s. (Fig. 3's
// stop guard ↓inactive thus accepts uninstalled dependents — a dependent
// that is not even installed certainly is not using the service.)
// Predicates over non-basic states require exact equality.
func (p Pred) holds(s State) bool {
	ps, pok := rank(p.State)
	ss, sok := rank(s)
	if !pok || !sok {
		return s == p.State
	}
	if p.Dir == Upstream {
		return ss >= ps
	}
	return ss <= ps
}

// Holds reports whether the guard holds for instance id under env.
func (g Guard) Holds(id string, env GuardEnv) bool {
	for _, p := range g {
		for _, s := range env.NeighbourStates(id, p.Dir) {
			if !p.holds(s) {
				return false
			}
		}
	}
	return true
}

// Context is the runtime context handed to driver actions: the instance
// being managed (with its propagated port values), its machine, the
// machine's package manager, and a scratch store persisted across
// actions (e.g., daemon PIDs).
type Context struct {
	Instance *spec.Instance
	Machine  *machine.Machine
	PkgMgr   *pkgmgr.Manager
	Scratch  map[string]any
	// Sink receives the simulated durations of driver work (service
	// start-up, configuration, migrations); nil charges the world clock.
	Sink machine.TimeSink
}

// Charge records simulated time spent by a driver action.
func (c *Context) Charge(d time.Duration) {
	if c.Sink != nil {
		c.Sink.Charge(d)
		return
	}
	c.Machine.Clock().Advance(d)
}

// PutPID stores a daemon PID under a name.
func (c *Context) PutPID(name string, pid int) { c.Scratch["pid:"+name] = pid }

// PID retrieves a stored daemon PID.
func (c *Context) PID(name string) (int, bool) {
	v, ok := c.Scratch["pid:"+name]
	if !ok {
		return 0, false
	}
	pid, ok := v.(int)
	return pid, ok
}

// ActionFunc is the implementation of a guarded action.
type ActionFunc func(*Context) error

// Action is a guarded transition of a driver state machine.
type Action struct {
	Name  string
	From  State
	To    State
	Guard Guard
	Run   ActionFunc // nil = bookkeeping-only transition
}

// StateMachine describes a driver: its states and guarded actions. The
// same description is shared by every instance of a resource type; each
// instance gets its own Driver.
type StateMachine struct {
	States  []State
	Actions []Action
}

// Validate checks the machine: the basic states are present, every
// action connects declared states, action names are unique per source
// state, and active is reachable from uninstalled.
func (sm *StateMachine) Validate() error {
	have := make(map[State]bool, len(sm.States))
	for _, s := range sm.States {
		have[s] = true
	}
	for _, b := range []State{Uninstalled, Inactive, Active} {
		if !have[b] {
			return fmt.Errorf("driver: state machine missing basic state %q", b)
		}
	}
	seen := make(map[string]bool)
	for _, a := range sm.Actions {
		if !have[a.From] || !have[a.To] {
			return fmt.Errorf("driver: action %q connects undeclared states %q → %q", a.Name, a.From, a.To)
		}
		k := string(a.From) + "/" + a.Name
		if seen[k] {
			return fmt.Errorf("driver: duplicate action %q from state %q", a.Name, a.From)
		}
		seen[k] = true
	}
	if sm.PathTo(Uninstalled, Active) == nil {
		return fmt.Errorf("driver: active unreachable from uninstalled")
	}
	return nil
}

// PathTo returns the names of a shortest action sequence from one state
// to another (BFS over transitions, ignoring guards), or nil if
// unreachable. An empty non-nil slice means from == to.
func (sm *StateMachine) PathTo(from, to State) []string {
	if from == to {
		return []string{}
	}
	type hop struct {
		state State
		via   []string
	}
	visited := map[State]bool{from: true}
	queue := []hop{{state: from}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		for _, a := range sm.Actions {
			if a.From != h.state || visited[a.To] {
				continue
			}
			via := append(append([]string(nil), h.via...), a.Name)
			if a.To == to {
				return via
			}
			visited[a.To] = true
			queue = append(queue, hop{state: a.To, via: via})
		}
	}
	return nil
}

// find returns the action with the given name leaving the given state.
func (sm *StateMachine) find(from State, name string) (Action, bool) {
	for _, a := range sm.Actions {
		if a.From == from && a.Name == name {
			return a, true
		}
	}
	return Action{}, false
}

// ActionNames lists distinct action names, sorted; for introspection.
func (sm *StateMachine) ActionNames() []string {
	set := make(map[string]bool)
	for _, a := range sm.Actions {
		set[a.Name] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Driver is a state machine instance bound to a resource instance's
// runtime context.
type Driver struct {
	SM  *StateMachine
	Ctx *Context
	cur State
}

// NewDriver returns a driver in the initial uninstalled state.
func NewDriver(sm *StateMachine, ctx *Context) *Driver {
	if ctx.Scratch == nil {
		ctx.Scratch = make(map[string]any)
	}
	return &Driver{SM: sm, Ctx: ctx, cur: Uninstalled}
}

// State returns the current state.
func (d *Driver) State() State { return d.cur }

// SetState forces the state; used by the upgrade framework when
// adopting an already-deployed instance.
func (d *Driver) SetState(s State) { d.cur = s }

// BlockedError reports a transition whose guard does not (yet) hold.
type BlockedError struct {
	ID     string
	Action string
	Guard  Guard
}

func (e *BlockedError) Error() string {
	return fmt.Sprintf("driver: instance %q: action %q blocked on guard %s", e.ID, e.Action, e.Guard)
}

// Fire executes the named action from the current state. If the guard
// does not hold it returns a *BlockedError without running the action
// (the paper's semantics: "the transition blocks until the guard
// becomes true"). The deployment engine fires in dependency order, so
// there a blocked guard is a failure.
func (d *Driver) Fire(name string, env GuardEnv) error {
	a, ok := d.SM.find(d.cur, name)
	if !ok {
		return fmt.Errorf("driver: instance %q: no action %q from state %q", d.Ctx.Instance.ID, name, d.cur)
	}
	if !a.Guard.Holds(d.Ctx.Instance.ID, env) {
		return &BlockedError{ID: d.Ctx.Instance.ID, Action: name, Guard: a.Guard}
	}
	if a.Run != nil {
		if err := a.Run(d.Ctx); err != nil {
			return fmt.Errorf("driver: instance %q: action %q: %w", d.Ctx.Instance.ID, name, err)
		}
	}
	d.cur = a.To
	return nil
}

// --- Standard machine shapes ---

// ServiceMachine builds the Fig. 3 state machine: install takes
// uninstalled→inactive; start takes inactive→active guarded on ↑active;
// stop takes active→inactive guarded on ↓inactive; restart loops on
// active; uninstall takes inactive→uninstalled.
func ServiceMachine(install, start, stop, restart, uninstall ActionFunc) *StateMachine {
	return &StateMachine{
		States: []State{Uninstalled, Inactive, Active},
		Actions: []Action{
			{Name: "install", From: Uninstalled, To: Inactive, Run: install},
			{Name: "start", From: Inactive, To: Active, Guard: Guard{{Upstream, Active}}, Run: start},
			{Name: "stop", From: Active, To: Inactive, Guard: Guard{{Downstream, Inactive}}, Run: stop},
			{Name: "restart", From: Active, To: Active, Run: restart},
			{Name: "uninstall", From: Inactive, To: Uninstalled, Run: uninstall},
		},
	}
}

// LibraryMachine builds the degenerate machine for passive resources
// (libraries, language runtimes, data files) where inactive and active
// coincide operationally: install goes straight to active (guarded on
// upstream active so containers are ready), and stop is a free
// transition so shutdown can pass through.
func LibraryMachine(install, uninstall ActionFunc) *StateMachine {
	return &StateMachine{
		States: []State{Uninstalled, Inactive, Active},
		Actions: []Action{
			{Name: "install", From: Uninstalled, To: Active, Guard: Guard{{Upstream, Active}}, Run: install},
			{Name: "stop", From: Active, To: Inactive, Guard: Guard{{Downstream, Inactive}}},
			{Name: "start", From: Inactive, To: Active, Guard: Guard{{Upstream, Active}}},
			{Name: "uninstall", From: Inactive, To: Uninstalled, Run: uninstall},
		},
	}
}

// MachineMachine builds the machine for machine resources (servers):
// they are "installed" by provisioning, which the runtime performs
// before deployment, so install and start are free transitions.
func MachineMachine() *StateMachine {
	return &StateMachine{
		States: []State{Uninstalled, Inactive, Active},
		Actions: []Action{
			{Name: "install", From: Uninstalled, To: Inactive},
			{Name: "start", From: Inactive, To: Active},
			{Name: "stop", From: Active, To: Inactive, Guard: Guard{{Downstream, Inactive}}},
			{Name: "uninstall", From: Inactive, To: Uninstalled},
		},
	}
}
