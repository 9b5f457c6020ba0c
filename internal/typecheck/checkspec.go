package typecheck

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"engage/internal/diag"
	"engage/internal/resource"
	"engage/internal/spec"
)

// CheckSpec validates a full installation specification against a
// well-formed registry (§3.3) with the structural rules of Check, and
// joins the findings' messages into one error.
func CheckSpec(reg *resource.Registry, f *spec.Full) error {
	var errs []error
	for _, d := range Check(reg, nil, f) {
		errs = append(errs, errors.New(d.Message))
	}
	return errors.Join(errs...)
}

// Check is the specification checker: the rules of §3.3 read off the
// full specification alone, through hash indexes by instance id,
// resolved machine and key — no hypergraph, no solver. Every finding
// carries a plan-closure, plan-constraint or plan-port code, in a
// deterministic order.
//
// The structural rules hold for every valid specification:
//
//   - instance ids are unique and every type is known and concrete;
//   - each inside chain ends at a machine, and the recorded machine is
//     that one (a blank machine is a finding);
//   - the container satisfies the type's inside dependency, and every
//     environment and peer dependency is met by exactly one link to an
//     instance of a subtype of one alternative: an environment target
//     on the dependent's machine, a peer target anywhere;
//   - every link lands on a present instance and meets a dependency;
//   - every mapped input equals the linked output, every input port is
//     fed exactly once (reverse port maps included), and every value
//     belongs to a declared port, config and input values assignably;
//   - no two instances on a machine claim one TCP port (port 0 claims
//     none), and the links are acyclic.
//
// With a non-nil partial, the extension rules check that f extends it
// as GraphGen's constraints require:
//
//   - every partial instance is present with its key and container, and
//     every machine is a partial instance (GraphGen creates none);
//   - no second instance on a dependent's machine satisfies a concrete
//     alternative of its environment dependency that the linked target
//     does not (GraphGen offers both, and exactly one may be deployed;
//     DESIGN.md §4 states this sharing rule);
//   - every instance is reachable from the partial through links
//     (Lemma 1).
func Check(reg *resource.Registry, partial *spec.Partial, f *spec.Full) []diag.Diagnostic {
	c := &checker{
		reg:     reg,
		sub:     resource.NewSubtyper(reg),
		f:       f,
		pos:     make(map[string]int, len(f.Instances)),
		machine: make([]string, len(f.Instances)),
	}
	for i, inst := range f.Instances {
		if _, dup := c.pos[inst.ID]; dup {
			c.add(diag.CodePlanClosure, inst.ID, "spec: duplicate instance id %q", inst.ID)
			continue
		}
		c.pos[inst.ID] = i
	}
	for i, inst := range f.Instances {
		c.machine[i] = c.resolveMachine(inst)
		for _, l := range inst.Deps {
			j, ok := c.pos[l.Target]
			for _, in := range l.ReversePortMap { //engage:maporder — an order-free count
				if c.fedBack == nil {
					c.fedBack = make([][]string, len(f.Instances))
				}
				if ok {
					c.fedBack[j] = append(c.fedBack[j], in)
				}
			}
		}
	}
	if partial != nil {
		c.indexKeys()
	}
	for i, inst := range f.Instances {
		t, ok := reg.Lookup(inst.Key)
		switch {
		case !ok:
			c.add(diag.CodePlanClosure, inst.ID, "instance %q: unknown resource type %q", inst.ID, inst.Key)
		case t.Abstract:
			c.add(diag.CodePlanClosure, inst.ID, "instance %q: abstract resource type %q cannot be instantiated", inst.ID, inst.Key)
		default:
			c.checkInstance(i, t)
		}
	}
	c.checkPortClaims()
	if _, err := f.TopoOrder(); err != nil {
		c.add(diag.CodePlanClosure, "", "%v", err)
	}
	if partial != nil {
		c.checkExtends(partial)
	}
	return c.diags
}

// checker holds one run's indexes and findings. Instances are known by
// their position in the specification.
type checker struct {
	reg *resource.Registry
	sub *resource.Subtyper
	f   *spec.Full
	pos map[string]int // id → position of its first instance
	// machine is each instance's machine, resolved once from its inside
	// chain; "" when the chain is broken or cyclic.
	machine []string
	// fedBack lists the inputs reverse port maps feed, by position; nil
	// when the specification has no reverse port map.
	fedBack [][]string
	claims  []portClaim
	// keysOn (extension rules only) names the position of the first
	// instance on a machine whose key is, or declares as an ancestor,
	// the given key.
	keysOn    map[machineKey]int
	frontiers map[resource.Key][]resource.Key
	// Scratch for the instance being checked: its links, the inputs its
	// container and matched links feed, and one port map's keys.
	links []link
	fed   []string
	keys  []string
	diags []diag.Diagnostic
}

// portClaim is a config port holding a TCP port on a machine.
type portClaim struct {
	machine        string
	port           int
	instance, name string
}

type machineKey struct {
	machine string
	key     resource.Key
}

// link is one link of the instance being checked: whether it met a
// dependency, and its target's position (-1 when absent).
type link struct {
	state  linkState
	target int
}

type linkState uint8

const (
	unmatched linkState = iota
	metDep              // met an environment or peer dependency
	accounted           // the inside link, or a dangling one
)

func (c *checker) add(code, subject, format string, args ...any) {
	c.diags = append(c.diags, diag.Diagnostic{
		Code: code, Severity: diag.Error, Subject: subject, Message: fmt.Sprintf(format, args...),
	})
}

// get returns the instance with the given id and its position, or nil.
func (c *checker) get(id string) (*spec.Instance, int) {
	if i, ok := c.pos[id]; ok {
		return c.f.Instances[i], i
	}
	return nil, -1
}

// resolveMachine follows inside links from an instance to its machine;
// "" when the chain is broken or cyclic.
func (c *checker) resolveMachine(inst *spec.Instance) string {
	for steps := 0; inst.Inside != ""; steps++ {
		if inst, _ = c.get(inst.Inside); inst == nil || steps == len(c.pos) {
			return ""
		}
	}
	return inst.ID
}

func (c *checker) checkInstance(i int, t *resource.Type) {
	inst, m := c.f.Instances[i], c.machine[i]
	if m == "" {
		c.add(diag.CodePlanClosure, inst.ID, "instance %q: cannot resolve machine via inside chain", inst.ID)
	} else if inst.Machine != m {
		c.add(diag.CodePlanClosure, inst.ID, "instance %q: recorded machine %q disagrees with inside chain (%q)", inst.ID, inst.Machine, m)
	}
	switch container, _ := c.get(inst.Inside); {
	case t.Inside == nil && inst.Inside != "":
		c.add(diag.CodePlanClosure, inst.ID, "instance %q: machine type %q must not have a container", inst.ID, inst.Key)
	case t.Inside != nil && inst.Inside == "":
		c.add(diag.CodePlanClosure, inst.ID, "instance %q: type %q requires a container (inside dependency)", inst.ID, inst.Key)
	case t.Inside != nil && container == nil:
		c.add(diag.CodePlanClosure, inst.ID, "instance %q: container %q not in specification", inst.ID, inst.Inside)
	case t.Inside != nil && !c.matchesAny(container.Key, t.Inside.Alternatives):
		c.add(diag.CodePlanConstraint, inst.ID, "instance %q: container %q has type %q, not a subtype of %s",
			inst.ID, inst.Inside, container.Key, t.Inside)
	}

	c.links = c.links[:0]
	for _, l := range inst.Deps {
		_, j := c.get(l.Target)
		switch {
		case l.Class == resource.DepInside && l.Target == inst.Inside:
			c.links = append(c.links, link{accounted, j})
		case j < 0:
			c.links = append(c.links, link{accounted, j})
			c.add(diag.CodePlanClosure, inst.ID, "instance %q has a %s link to absent instance %q", inst.ID, l.Class, l.Target)
		default:
			c.links = append(c.links, link{unmatched, j})
		}
	}
	c.checkDeps(i, resource.DepEnv, t.Env)
	c.checkDeps(i, resource.DepPeer, t.Peer)
	c.fed = c.fed[:0]
	if t.Inside != nil {
		for _, in := range t.Inside.PortMap { //engage:maporder — collected to be counted
			c.fed = append(c.fed, in)
		}
	}
	if c.fedBack != nil {
		c.fed = append(c.fed, c.fedBack[i]...)
	}
	for j, l := range inst.Deps {
		if c.links[j].state == unmatched {
			c.add(diag.CodePlanConstraint, inst.ID, "instance %q: link %v matches no dependency of type %q", inst.ID, l.Target, inst.Key)
		}
		c.checkLink(inst, l, c.links[j])
	}
	for _, p := range t.Input {
		n := 0
		for _, in := range c.fed {
			if in == p.Name {
				n++
			}
		}
		switch {
		case n == 0:
			c.add(diag.CodePlanPort, inst.ID, "instance %q: input port %q receives no value", inst.ID, p.Name)
		case n > 1:
			c.add(diag.CodePlanPort, inst.ID, "instance %q: input port %q receives %d values", inst.ID, p.Name, n)
		}
	}
	c.checkValues(inst, "config", t.Config, inst.Config, true)
	c.checkValues(inst, "input", t.Input, inst.Input, true)
	c.checkValues(inst, "output", t.Output, inst.Output, false)
	for _, p := range t.Config {
		if v, ok := inst.Config[p.Name]; ok && p.Type.Kind == resource.KindPort && v.Int != 0 {
			c.claims = append(c.claims, portClaim{m, v.Int, inst.ID, p.Name})
		}
	}
}

// checkDeps meets each dependency of one class with the first unmatched
// link of that class whose target's type is a subtype of one of its
// alternatives.
func (c *checker) checkDeps(i int, class resource.DependencyClass, deps []resource.Dependency) {
	inst := c.f.Instances[i]
	for _, d := range deps {
		tj := -1
		for j, l := range inst.Deps {
			if c.links[j].state == unmatched && l.Class == class && c.matchesAny(c.f.Instances[c.links[j].target].Key, d.Alternatives) {
				c.links[j].state, tj = metDep, c.links[j].target
				break
			}
		}
		switch {
		case tj < 0:
			c.add(diag.CodePlanConstraint, inst.ID, "instance %q: no link satisfying %s dependency %s", inst.ID, class, d)
		case class != resource.DepEnv:
		case c.machine[i] != "" && c.machine[tj] != "" && c.machine[i] != c.machine[tj]:
			c.add(diag.CodePlanConstraint, inst.ID, "instance %q: environment dependency %q must be on the same machine (%q vs %q)",
				inst.ID, c.f.Instances[tj].ID, c.machine[i], c.machine[tj])
		case c.keysOn != nil:
			c.checkExclusive(i, d, c.f.Instances[tj])
		}
	}
}

// checkLink checks one link's port map — the mapped output exists, the
// input was filled, and the two are equal — and, when the link met a
// dependency, collects the inputs it feeds into c.fed.
func (c *checker) checkLink(inst *spec.Instance, l spec.DepLink, lk link) {
	if lk.target < 0 {
		return
	}
	target := c.f.Instances[lk.target]
	c.keys = sortedKeys(c.keys[:0], l.PortMap)
	for _, out := range c.keys {
		in := l.PortMap[out]
		if lk.state == metDep {
			c.fed = append(c.fed, in)
		}
		ov, okOut := target.Output[out]
		iv, okIn := inst.Input[in]
		switch {
		case !okOut:
			c.add(diag.CodePlanPort, inst.ID, "instance %q maps output %q of %q, which has no such value", inst.ID, out, l.Target)
		case !okIn:
			c.add(diag.CodePlanPort, inst.ID, "instance %q input %q was never filled from %q.%s", inst.ID, in, l.Target, out)
		case !ov.Equal(iv):
			c.add(diag.CodePlanPort, inst.ID, "instance %q: input %q (%s) differs from %q output %q (%s)",
				inst.ID, in, iv, l.Target, out, ov)
		}
	}
}

// checkValues checks one section's values against the type's declared
// ports: assignability (when typed) in declaration order, then the
// undeclared names, sorted.
func (c *checker) checkValues(inst *spec.Instance, section string, ports []resource.Port, vals map[string]resource.Value, typed bool) {
	declared := 0
	for _, p := range ports {
		v, ok := vals[p.Name]
		if !ok {
			continue
		}
		declared++
		if typed && !v.Type().AssignableTo(p.Type) {
			c.add(diag.CodePlanPort, inst.ID, "instance %q: %s port %q: %s not assignable to %s", inst.ID, section, p.Name, v.Type(), p.Type)
		}
	}
	if declared == len(vals) {
		return
	}
	for _, name := range sortedKeys(nil, vals) {
		if !slices.ContainsFunc(ports, func(p resource.Port) bool { return p.Name == name }) {
			c.add(diag.CodePlanPort, inst.ID, "instance %q: unknown %s port %q", inst.ID, section, name)
		}
	}
}

// checkPortClaims statically detects two instances on one machine whose
// tcp_port-typed config ports hold the same value — the class of failure
// the paper's drivers discover only at install time ("environment
// checks (e.g., required TCP/IP ports are available)"). Each later
// claim is reported against the first, by machine and port.
func (c *checker) checkPortClaims() {
	slices.SortStableFunc(c.claims, func(a, b portClaim) int {
		return cmp.Or(strings.Compare(a.machine, b.machine), cmp.Compare(a.port, b.port))
	})
	for i, first := 1, 0; i < len(c.claims); i++ {
		cl, prev := c.claims[i], c.claims[first]
		if cl.machine != prev.machine || cl.port != prev.port {
			first = i
			continue
		}
		c.add(diag.CodePlanConstraint, cl.instance, "instance %q: config port %q claims TCP port %d on machine %q, already claimed by %q.%s",
			cl.instance, cl.name, cl.port, cl.machine, prev.instance, prev.name)
	}
}

// indexKeys fills keysOn: each instance under its machine and every key
// its type is or declares as an ancestor.
func (c *checker) indexKeys() {
	c.keysOn = make(map[machineKey]int, 2*len(c.f.Instances))
	c.frontiers = make(map[resource.Key][]resource.Key)
	for i, inst := range c.f.Instances {
		for t, ok := c.reg.Lookup(inst.Key); ok; {
			if _, taken := c.keysOn[machineKey{c.machine[i], t.Key}]; !taken {
				c.keysOn[machineKey{c.machine[i], t.Key}] = i
			}
			if t.Extends == nil {
				break
			}
			t, ok = c.reg.Lookup(*t.Extends)
		}
	}
}

// checkExclusive reports a second instance on the dependent's machine
// that satisfies a concrete alternative of its environment dependency d
// which the linked target does not: GraphGen makes both targets of one
// hyperedge, of which exactly one may be deployed.
func (c *checker) checkExclusive(i int, d resource.Dependency, target *spec.Instance) {
	for _, alt := range d.Alternatives {
		frontier, ok := c.frontiers[alt]
		if !ok {
			frontier, _ = c.reg.Frontier(alt) // an empty frontier is CheckTypes' finding
			c.frontiers[alt] = frontier
		}
		for _, k := range frontier {
			j, ok := c.keysOn[machineKey{c.machine[i], k}]
			if !ok || j == i || c.sub.IsSubtype(target.Key, k) || !c.sub.IsSubtype(c.f.Instances[j].Key, k) {
				continue
			}
			inst, other := c.f.Instances[i], c.f.Instances[j]
			pair := []string{target.ID, other.ID}
			slices.Sort(pair)
			c.add(diag.CodePlanConstraint, inst.ID,
				"the environment dependency %s of %q must be satisfied by exactly one deployed target, found 2 of %v", d, inst.ID, pair)
			return
		}
	}
}

// checkExtends runs the extension rules against the partial.
func (c *checker) checkExtends(partial *spec.Partial) {
	specified := make(map[string]bool, len(partial.Instances))
	reached := make([]bool, len(c.f.Instances))
	var queue []int
	for _, pi := range partial.Instances {
		specified[pi.ID] = true
		inst, i := c.get(pi.ID)
		switch {
		case inst == nil:
			c.add(diag.CodePlanConstraint, pi.ID, "specified instance %q is missing from the full specification", pi.ID)
			continue
		case inst.Key != pi.Key:
			c.add(diag.CodePlanConstraint, pi.ID, "instance %q has type %q; the specification pins %q", pi.ID, inst.Key, pi.Key)
		case inst.Inside != pi.Inside:
			c.add(diag.CodePlanConstraint, pi.ID, "instance %q is inside %q; the specification puts it inside %q", pi.ID, inst.Inside, pi.Inside)
		}
		if !reached[i] {
			reached[i] = true
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		inst := c.f.Instances[queue[len(queue)-1]]
		queue = queue[:len(queue)-1]
		for k := -1; k < len(inst.Deps); k++ { // k = -1 is the container
			id := inst.Inside
			if k >= 0 {
				id = inst.Deps[k].Target
			}
			if _, j := c.get(id); j >= 0 && !reached[j] {
				reached[j] = true
				queue = append(queue, j)
			}
		}
	}
	for i, inst := range c.f.Instances {
		switch {
		case !reached[i]:
			c.add(diag.CodePlanConstraint, inst.ID, "instance %q is not reachable from the specification through dependency links", inst.ID)
		case inst.Inside == "" && !specified[inst.ID]:
			c.add(diag.CodePlanConstraint, inst.ID, "machine %q is not in the specification, and GraphGen creates no machines", inst.ID)
		}
	}
}

func (c *checker) matchesAny(k resource.Key, alts []resource.Key) bool {
	return slices.ContainsFunc(alts, func(a resource.Key) bool { return c.sub.IsSubtype(k, a) })
}

// sortedKeys appends a map's keys to dst, in order.
func sortedKeys[V any](dst []string, m map[string]V) []string {
	for k := range m { //engage:maporder — collected then sorted below
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}
