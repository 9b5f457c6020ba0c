package lint

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"engage/internal/resource"
	"engage/internal/sat"
	"engage/internal/typecheck"
)

// libraryDiagnostics runs every library-level check, in a fixed order so
// reports are deterministic: typecheck violations, dependency cycles,
// empty frontiers, dead resources, shadowed versions, unused outputs,
// and whole-library port mismatches.
func libraryDiagnostics(reg *resource.Registry, rep *Report) {
	ix := newLibIndex(reg)

	for _, err := range typecheck.Problems(reg) {
		subject, pos := subjectOfProblem(reg, err.Error())
		rep.add(CodeTypecheck, pos, subject, "%s", err.Error())
	}

	if cyc := typecheck.FindCycle(reg); len(cyc) > 0 {
		names := make([]string, len(cyc))
		for i, k := range cyc {
			names[i] = k.String()
		}
		rep.add(CodeDepCycle, ix.origin(cyc[0]), cyc[0].String(),
			"dependency cycle among resource types: %s", strings.Join(names, " -> "))
	}

	for _, k := range reg.Keys() {
		t := reg.MustLookup(k)
		if t.Abstract && len(reg.Children(k)) == 0 {
			rep.add(CodeEmptyFrontier, t.Origin, k.String(),
				"abstract resource %q has no concrete subtype; no dependency on it can ever be satisfied", k)
		}
	}

	dead := ix.deadResources()
	for _, k := range ix.concrete {
		if why, isDead := dead[k]; isDead {
			rep.add(CodeDeadResource, ix.origin(k), k.String(),
				"resource %q can never be deployed: %s", k, why)
		}
	}

	ix.shadowedVersions(dead, rep)
	ix.unusedOutputs(rep)
	ix.portMismatches(rep)
}

// typeQuoted extracts the first quoted name from a typecheck message
// ('type "Web 1.0": ...') so the diagnostic can point at the
// declaration.
var typeQuoted = regexp.MustCompile(`"([^"]+)"`)

func subjectOfProblem(reg *resource.Registry, msg string) (subject, pos string) {
	m := typeQuoted.FindStringSubmatch(msg)
	if m == nil {
		return "", ""
	}
	k := resource.ParseKey(m[1])
	if t, ok := reg.Lookup(k); ok {
		return k.String(), t.Origin
	}
	return m[1], ""
}

// libIndex caches the library-wide relations the checks share: the
// subtype checker, the concrete keys, and per-dependency-target member
// sets.
type libIndex struct {
	reg      *resource.Registry
	sub      *resource.Subtyper
	keys     []resource.Key
	concrete []resource.Key
	members  map[resource.Key][]resource.Key
}

func newLibIndex(reg *resource.Registry) *libIndex {
	ix := &libIndex{
		reg:     reg,
		sub:     resource.NewSubtyper(reg),
		keys:    reg.Keys(),
		members: make(map[resource.Key][]resource.Key),
	}
	for _, k := range ix.keys {
		if !reg.MustLookup(k).Abstract {
			ix.concrete = append(ix.concrete, k)
		}
	}
	return ix
}

func (ix *libIndex) origin(k resource.Key) string {
	if t, ok := ix.reg.Lookup(k); ok {
		return t.Origin
	}
	return ""
}

// membersOf returns the concrete types a dependency on alt may resolve
// to at deployment time: the structural subtypes (the generator's
// instance-matching relation) united with the nominal concrete frontier
// (the generator's expansion relation — reachable even when a declared
// extension is structurally invalid). Sorted, deduplicated, cached.
func (ix *libIndex) membersOf(alt resource.Key) []resource.Key {
	if m, ok := ix.members[alt]; ok {
		return m
	}
	set := make(map[resource.Key]bool)
	for _, c := range ix.concrete {
		if ix.sub.IsSubtype(c, alt) {
			set[c] = true
		}
	}
	ix.nominalConcrete(alt, set)
	out := make([]resource.Key, 0, len(set))
	for k := range set { //engage:maporder — collected then sorted below
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	ix.members[alt] = out
	return out
}

// nominalConcrete adds the concrete frontier of k under the declared
// extends tree into set, tolerating abstract leaves (those are reported
// by the empty-frontier check, not here).
func (ix *libIndex) nominalConcrete(k resource.Key, set map[resource.Key]bool) {
	t, ok := ix.reg.Lookup(k)
	if !ok {
		return
	}
	if !t.Abstract {
		set[k] = true
		return
	}
	for _, c := range ix.reg.Children(k) {
		ix.nominalConcrete(c, set)
	}
}

// depMembers returns the union of membersOf over a dependency's
// alternatives, deduplicated, in alternative order.
func (ix *libIndex) depMembers(d resource.Dependency) []resource.Key {
	seen := make(map[resource.Key]bool)
	var out []resource.Key
	for _, alt := range d.Alternatives {
		for _, m := range ix.membersOf(alt) {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	return out
}

// deadResources proves, per concrete type, whether any deployment
// containing it can exist. The proof is a type-level SAT problem — one
// variable per concrete type, one clause per dependency requiring some
// member to coexist — probed per type with SolveAssuming on a single
// incremental session. The returned map holds a one-line explanation
// for each dead type.
func (ix *libIndex) deadResources() map[resource.Key]string {
	varOf := make(map[resource.Key]int, len(ix.concrete))
	for i, k := range ix.concrete {
		varOf[k] = i + 1
	}
	f := sat.NewFormula(len(ix.concrete))
	for _, k := range ix.concrete {
		t := ix.reg.MustLookup(k)
		for _, cd := range t.Deps() {
			clause := make([]sat.Lit, 0, 4)
			clause = append(clause, sat.Lit(-varOf[k]))
			for _, m := range ix.depMembers(cd.Dep) {
				clause = append(clause, sat.Lit(varOf[m]))
			}
			f.Add(clause...)
		}
	}

	inc := sat.NewCDCL().StartIncremental(f)
	dead := make(map[resource.Key]string)
	for _, k := range ix.concrete {
		res := inc.SolveAssuming([]sat.Lit{sat.Lit(varOf[k])})
		if res.Status == sat.Unsat {
			dead[k] = "" // explanation filled below, once the set is complete
		}
	}

	// Explain each dead type by the dependency that sinks it: a dead
	// type always has a dependency whose member set is empty or
	// entirely dead (the live set is closed under union, so a type all
	// of whose dependencies reach a live member would be live itself).
	for k := range dead { //engage:maporder — per-key rewrite, order-free
		t := ix.reg.MustLookup(k)
		for _, cd := range t.Deps() {
			ms := ix.depMembers(cd.Dep)
			if len(ms) == 0 {
				dead[k] = fmt.Sprintf("its %s dependency %s has no deployable target", cd.Class, cd.Dep)
				break
			}
			allDead := true
			for _, m := range ms {
				if _, isDead := dead[m]; !isDead {
					allDead = false
					break
				}
			}
			if allDead {
				dead[k] = fmt.Sprintf("every candidate of its %s dependency %s is itself undeployable", cd.Class, cd.Dep)
				break
			}
		}
		if dead[k] == "" {
			dead[k] = "no combination of dependency targets is deployable"
		}
	}
	return dead
}

// shadowedVersions warns about concrete versions that can never be
// chosen for any dependency while sibling versions of the same
// component can — typically a version left out of the subtyping
// frontier. Dead resources are skipped (the error supersedes the
// warning), as are types no version of which is a dependency target
// (top-of-stack applications).
func (ix *libIndex) shadowedVersions(dead map[resource.Key]string, rep *Report) {
	targeted := make(map[resource.Key]bool)
	for _, k := range ix.keys {
		t := ix.reg.MustLookup(k)
		for _, cd := range t.Deps() {
			for _, m := range ix.depMembers(cd.Dep) {
				targeted[m] = true
			}
		}
	}
	nameTargeted := make(map[string]bool)
	for k, v := range targeted { //engage:maporder — map-to-map derivation, order-free
		if v {
			nameTargeted[k.Name] = true
		}
	}
	for _, k := range ix.concrete {
		if targeted[k] || !nameTargeted[k.Name] {
			continue
		}
		if _, isDead := dead[k]; isDead {
			continue
		}
		if ix.reg.MustLookup(k).IsMachine() {
			continue // machines are named by the spec, never by dependencies
		}
		rep.add(CodeUnreachableVersion, ix.origin(k), k.String(),
			"resource %q can never be chosen for a dependency, but other versions of %q can; it is shadowed by the subtyping frontier", k, k.Name)
	}
}

// unusedOutputs warns about output ports of dependency-targetable types
// that no dependency in the library reads. Types nothing targets are
// skipped entirely: their outputs are the deployment's user-facing
// exports (e.g. an application URL). Inherited ports are reported once,
// at their declaring origin.
func (ix *libIndex) unusedOutputs(rep *Report) {
	// reads[k] is the set of output-port names of k some dependency
	// reads: forward port maps of dependencies that may resolve to k,
	// plus k's own reverse port maps (those outputs feed dependees).
	reads := make(map[resource.Key]map[string]bool)
	targeted := make(map[resource.Key]bool)
	mark := func(k resource.Key, port string) {
		if reads[k] == nil {
			reads[k] = make(map[string]bool)
		}
		reads[k][port] = true
	}
	for _, k := range ix.keys {
		t := ix.reg.MustLookup(k)
		for _, cd := range t.Deps() {
			receivers := ix.depMembers(cd.Dep)
			for _, alt := range cd.Dep.Alternatives {
				receivers = append(receivers, alt)
			}
			for _, m := range receivers {
				targeted[m] = true
				for outPort := range cd.Dep.PortMap {
					mark(m, outPort)
				}
			}
			for outPort := range cd.Dep.ReversePortMap {
				mark(k, outPort)
			}
		}
	}

	seen := make(map[string]bool) // dedupe inherited ports by origin
	for _, k := range ix.keys {
		if !targeted[k] {
			continue
		}
		t := ix.reg.MustLookup(k)
		for _, p := range t.Output {
			if reads[k][p.Name] {
				continue
			}
			dedupeKey := p.Origin + "|" + p.Name
			if p.Origin == "" {
				dedupeKey = k.String() + "|" + p.Name
			}
			if seen[dedupeKey] {
				continue
			}
			seen[dedupeKey] = true
			pos := p.Origin
			if pos == "" {
				pos = t.Origin
			}
			rep.add(CodeUnusedOutput, pos, k.String(),
				"output port %q of %q is never read: no dependency in the library maps it", p.Name, k)
		}
	}
}

// portMismatches checks port maps against every concrete member a
// dependency may resolve to at deployment time. The per-resource
// typecheck validates the declared alternatives only; a frontier member
// with drifted ports (an invalid extension still sits on the declared
// frontier) surfaces here, at its use site.
func (ix *libIndex) portMismatches(rep *Report) {
	for _, k := range ix.keys {
		t := ix.reg.MustLookup(k)
		for _, cd := range t.Deps() {
			declared := make(map[resource.Key]bool, len(cd.Dep.Alternatives))
			for _, alt := range cd.Dep.Alternatives {
				declared[alt] = true
			}
			for _, m := range ix.depMembers(cd.Dep) {
				if declared[m] {
					continue // the typecheck already validated declared targets
				}
				ix.checkMemberPorts(t, cd, m, rep)
			}
		}
	}
}

func (ix *libIndex) checkMemberPorts(t *resource.Type, cd resource.ClassedDep, m resource.Key, rep *Report) {
	mt, ok := ix.reg.Lookup(m)
	if !ok {
		return
	}
	for _, outPort := range sortedKeys(cd.Dep.PortMap) {
		inPort := cd.Dep.PortMap[outPort]
		ip, ok := t.FindPort(resource.SecInput, inPort)
		if !ok {
			continue // reported by the typecheck on t itself
		}
		op, ok := mt.FindPort(resource.SecOutput, outPort)
		if !ok {
			rep.add(CodePortMismatch, mt.Origin, t.Key.String(),
				"%s dependency %s of %q may resolve to %q, which has no output port %q",
				cd.Class, cd.Dep, t.Key, m, outPort)
			continue
		}
		if !op.Type.AssignableTo(ip.Type) {
			rep.add(CodePortMismatch, op.Origin, t.Key.String(),
				"%s dependency %s of %q may resolve to %q, whose output %q (%s) is not assignable to input %q (%s)",
				cd.Class, cd.Dep, t.Key, m, outPort, op.Type, inPort, ip.Type)
		}
	}
	for _, outPort := range sortedKeys(cd.Dep.ReversePortMap) {
		depIn := cd.Dep.ReversePortMap[outPort]
		op, ok := t.FindPort(resource.SecOutput, outPort)
		if !ok {
			continue // reported by the typecheck on t itself
		}
		ip, ok := mt.FindPort(resource.SecInput, depIn)
		if !ok {
			rep.add(CodePortMismatch, mt.Origin, t.Key.String(),
				"%s dependency %s of %q may resolve to %q, which has no input port %q for the reverse-mapped output %q",
				cd.Class, cd.Dep, t.Key, m, depIn, outPort)
			continue
		}
		if !op.Type.AssignableTo(ip.Type) {
			rep.add(CodePortMismatch, ip.Origin, t.Key.String(),
				"%s dependency %s of %q may resolve to %q: reverse-mapped output %q (%s) is not assignable to its input %q (%s)",
				cd.Class, cd.Dep, t.Key, m, outPort, op.Type, depIn, ip.Type)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m { //engage:maporder — collected then sorted below
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
