// Command vet-engage runs repository-specific static checks that go
// vet cannot express. It is hand-rolled on go/ast only (no external
// analysis framework) and is wired into CI as
//
//	go run ./tools/vet-engage ./...
//
// Checks:
//
//   - wallclock: the simulator packages (internal/deploy, machine,
//     monitor, fault, stack, health) run on a virtual clock; reading
//     the wall clock there silently breaks determinism and trace
//     reproducibility.
//     Any use of time.Now, time.Sleep, time.Since, time.Until,
//     time.After, time.Tick, time.NewTimer, time.NewTicker, or
//     time.AfterFunc in those packages is an error unless the line (or
//     the line above it) carries an //engage:wallclock comment, which
//     marks a deliberate wall-time measurement such as the span
//     wall-duration axis. Test files are exempt — they may time
//     themselves — except the work-counter and deploy-digest tests
//     (wallclockTestFiles), whose assertions must be counts or digests.
//
//   - maporder: the output-producing packages (internal/telemetry,
//     lint, store, certify, typecheck) promise deterministic output —
//     traces, diagnostics, snapshots, and verification reports are
//     diffed, hashed, and replayed. Go map iteration order is randomized, so a
//     bare `for range` over a map in those packages is an error unless
//     the line (or the line above it) carries an //engage:maporder
//     comment asserting the iteration is order-independent (counting,
//     draining) or immediately sorted. The check resolves map-typed
//     expressions by type-checking each package alone with stubbed
//     imports, which covers every in-package map; expressions whose
//     type cannot be resolved locally are skipped, not guessed at.
//     Test files are exempt.
//
//   - nilguard: disabled telemetry hands out nil *Tracer/*Span/*Event
//     (and nil metric instruments), and the documented contract is that
//     every method on them no-ops. That holds only if each exported
//     pointer-receiver method in internal/telemetry guards the receiver
//     against nil before touching its fields. The check verifies the
//     declarations, which makes every call site in the repo provably
//     nil-safe: a method may delegate to other methods of the receiver
//     freely (the callee guards), but a field access before the first
//     `if recv == nil` guard is an error.
//
//   - subtypepred: (*resource.Subtyper).Explain returns the reason a
//     pair is not a subtype, for diagnostics; asking only whether it is
//     one is IsSubtype's job. Comparing an Explain call with nil (== or
//     !=) is an error, in every package.
//     The method is resolved by type-checking each package with the
//     module's internal/resource checked from source and every other
//     import stubbed. Test files are exempt.
//
// Exit status is 1 if any finding is reported.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// wallclockDirs are the virtual-clock packages, as slash-separated
// paths relative to the module root.
var wallclockDirs = map[string]bool{
	"internal/deploy":  true,
	"internal/machine": true,
	"internal/monitor": true,
	"internal/fault":   true,
	// The stack's changeover and reconciler time upgrades and repairs
	// on the world clock.
	"internal/stack": true,
	// The health checker's whole contract is virtual-time probing
	// (detection bounds are stated in virtual time), so it carries zero
	// //engage:wallclock annotations by design.
	"internal/health": true,
}

// maporderDirs are the output-producing packages whose emissions must
// be deterministic.
var maporderDirs = map[string]bool{
	"internal/telemetry": true,
	"internal/lint":      true,
	"internal/store":     true,
	"internal/certify":   true,
	"internal/typecheck": true,
}

// wallclockTestFiles are the test files the wallclock check covers
// anyway: tests that pin the engine's work as counts or its outcome as
// digests.
var wallclockTestFiles = map[string]bool{
	"internal/workload/counts_test.go": true,
	"internal/workload/deploy_test.go": true,
}

const nilguardDir = "internal/telemetry"

// nilguardTypes are the receiver types whose exported methods must be
// nil-safe (the "disabled telemetry is free" contract).
var nilguardTypes = map[string]bool{
	"Tracer": true, "Span": true, "Event": true,
	"Counter": true, "Gauge": true, "Histogram": true, "Registry": true,
}

// wallclockFuncs are the time package functions that read or wait on
// the wall clock.
var wallclockFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

const allowDirective = "//engage:wallclock"

const maporderDirective = "//engage:maporder"

type finding struct {
	pos token.Position
	msg string
}

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expand(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vet-engage:", err)
		os.Exit(2)
	}
	var findings []finding
	fset := token.NewFileSet()
	imp := newResourceImporter(fset, ".")
	for _, dir := range dirs {
		fs, err := checkDir(fset, dir, imp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vet-engage:", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	for _, f := range findings {
		fmt.Printf("%s: %s\n", f.pos, f.msg)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// expand resolves ./... style patterns into the set of directories
// containing Go files.
func expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, p := range patterns {
		root, recursive := p, false
		if strings.HasSuffix(p, "/...") {
			root, recursive = strings.TrimSuffix(p, "/..."), true
		}
		if !recursive {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") {
				add(filepath.Dir(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// checkDir parses the directory's non-test Go files (and any test file
// in wallclockTestFiles) and applies the checks that are in scope for
// it.
func checkDir(fset *token.FileSet, dir string, imp types.Importer) ([]finding, error) {
	rel := filepath.ToSlash(strings.TrimPrefix(filepath.Clean(dir), "./"))
	wantWallclock := wallclockDirs[rel]
	wantNilguard := rel == nilguardDir
	wantMaporder := maporderDirs[rel]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var findings []finding
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !wallclockTestFiles[path.Join(rel, name)] {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if isTest {
			findings = append(findings, checkWallclock(fset, file, inCounterTest)...)
			continue
		}
		files = append(files, file)
		if wantWallclock {
			findings = append(findings, checkWallclock(fset, file, inClockPackage)...)
		}
		if wantNilguard {
			findings = append(findings, checkNilGuard(fset, file)...)
		}
	}
	if wantMaporder {
		findings = append(findings, checkMaporder(fset, files)...)
	}
	findings = append(findings, checkSubtypePred(fset, files, imp)...)
	return findings, nil
}

// stubImporter satisfies every import with an empty package. Local
// type checking still resolves all types declared inside the package
// under inspection, which is all maporder needs.
type stubImporter struct{ pkgs map[string]*types.Package }

func (s *stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	if s.pkgs == nil {
		s.pkgs = map[string]*types.Package{}
	}
	s.pkgs[path] = p
	return p, nil
}

// checkMaporder flags `for range` over map-typed expressions outside
// //engage:maporder allowlisted lines. The package is type-checked in
// isolation (imports stubbed, errors swallowed): a map whose type
// cannot be resolved locally is skipped rather than guessed at, so the
// check never false-positives on cross-package types.
func checkMaporder(fset *token.FileSet, files []*ast.File) []finding {
	if len(files) == 0 {
		return nil
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{
		Importer: &stubImporter{},
		Error:    func(error) {}, // stubbed imports guarantee errors; keep going
	}
	conf.Check(files[0].Name.Name, fset, files, info) //nolint:errcheck — partial info is the point

	var findings []finding
	for _, file := range files {
		allowed := map[int]bool{}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, maporderDirective) {
					line := fset.Position(c.Pos()).Line
					allowed[line] = true
					allowed[line+1] = true
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			pos := fset.Position(rs.For)
			if allowed[pos.Line] {
				return true
			}
			findings = append(findings, finding{pos, fmt.Sprintf(
				"maporder: range over a map in an output-producing package iterates in random order; sort the keys, or annotate the line with %s",
				maporderDirective)})
			return true
		})
	}
	return findings
}

// resourceImporter type-checks the module's internal/resource package
// from source, once, so that calls on a *resource.Subtyper resolve in
// every package; every other import is stubbed.
type resourceImporter struct {
	fset *token.FileSet
	path string // import path of internal/resource; "" outside a module
	dir  string
	pkg  *types.Package
	stub stubImporter
}

// newResourceImporter reads the module path from root/go.mod.
func newResourceImporter(fset *token.FileSet, root string) *resourceImporter {
	r := &resourceImporter{fset: fset, dir: filepath.Join(root, "internal", "resource")}
	if mod, err := os.ReadFile(filepath.Join(root, "go.mod")); err == nil {
		for _, line := range strings.Split(string(mod), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
				r.path = f[1] + "/internal/resource"
			}
		}
	}
	return r
}

func (r *resourceImporter) Import(importPath string) (*types.Package, error) {
	if importPath != r.path || r.path == "" {
		return r.stub.Import(importPath)
	}
	if r.pkg != nil {
		return r.pkg, nil
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			file, err := parser.ParseFile(r.fset, filepath.Join(r.dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, file)
		}
	}
	conf := types.Config{Importer: &r.stub, Error: func(error) {}}
	r.pkg, _ = conf.Check(importPath, r.fset, files, nil) // declarations are all we need
	return r.pkg, nil
}

// checkSubtypePred flags an Explain call on a *resource.Subtyper that is
// compared with nil. Calls whose receiver cannot be resolved are
// skipped, not guessed at.
func checkSubtypePred(fset *token.FileSet, files []*ast.File, imp types.Importer) []finding {
	if len(files) == 0 {
		return nil
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp, Error: func(error) {}}
	conf.Check(files[0].Name.Name, fset, files, info) //nolint:errcheck — partial info is the point

	var findings []finding
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if (isNil(bin.Y) && isSubtyperExplain(info, bin.X)) || (isNil(bin.X) && isSubtyperExplain(info, bin.Y)) {
				findings = append(findings, finding{fset.Position(bin.Pos()),
					"subtypepred: (*resource.Subtyper).Explain compared with nil; Explain is for the reason, IsSubtype for the question"})
			}
			return true
		})
	}
	return findings
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// isSubtyperExplain reports whether e is a call of the Explain method of
// a type named Subtyper in a package named resource.
func isSubtyperExplain(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Explain" {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Subtyper" && obj.Pkg() != nil && obj.Pkg().Name() == "resource"
}

// Where checkWallclock's findings say the wall clock was read, and what
// to do instead.
const (
	inClockPackage = "in a virtual-clock package; use the simulated clock"
	inCounterTest  = "in a work-counter test; pin counts, not times"
)

// checkWallclock flags wall-clock reads outside //engage:wallclock
// allowlisted lines.
func checkWallclock(fset *token.FileSet, file *ast.File, where string) []finding {
	timeName := ""
	for _, imp := range file.Imports {
		if imp.Path.Value != `"time"` {
			continue
		}
		timeName = "time"
		if imp.Name != nil {
			timeName = imp.Name.Name
		}
	}
	if timeName == "" || timeName == "_" {
		return nil
	}
	var findings []finding
	if timeName == "." {
		pos := fset.Position(file.Package)
		return []finding{{pos, "wallclock: dot-import of time hides wall-clock reads; import it qualified"}}
	}

	// Lines carrying (or directly under) an //engage:wallclock comment
	// are allowed.
	allowed := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, allowDirective) {
				line := fset.Position(c.Pos()).Line
				allowed[line] = true
				allowed[line+1] = true
			}
		}
	}

	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != timeName || !wallclockFuncs[sel.Sel.Name] {
			return true
		}
		pos := fset.Position(sel.Pos())
		if allowed[pos.Line] {
			return true
		}
		findings = append(findings, finding{pos, fmt.Sprintf(
			"wallclock: %s.%s %s, or annotate the line with %s",
			timeName, sel.Sel.Name, where, allowDirective)})
		return true
	})
	return findings
}

// checkNilGuard verifies that exported pointer-receiver methods on the
// telemetry instrument types do not dereference the receiver before a
// nil guard.
func checkNilGuard(fset *token.FileSet, file *ast.File) []finding {
	var findings []finding
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 || fn.Body == nil {
			continue
		}
		if !fn.Name.IsExported() {
			continue // internal helpers run only after a caller's guard
		}
		star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		tid, ok := star.X.(*ast.Ident)
		if !ok || !nilguardTypes[tid.Name] {
			continue
		}
		if len(fn.Recv.List[0].Names) == 0 {
			continue // receiver unnamed, cannot be dereferenced
		}
		recv := fn.Recv.List[0].Names[0].Name
		if recv == "_" {
			continue
		}
		if pos, bad := derefBeforeGuard(fn.Body.List, recv); bad {
			findings = append(findings, finding{fset.Position(pos), fmt.Sprintf(
				"nilguard: method (*%s).%s dereferences receiver %q before checking it for nil; a nil %s must no-op",
				tid.Name, fn.Name.Name, recv, tid.Name)})
		}
	}
	return findings
}

// derefBeforeGuard scans the statements in order and reports the first
// receiver field access occurring before an `if recv == nil` guard.
// Method calls on the receiver do not count: the callee guards.
func derefBeforeGuard(stmts []ast.Stmt, recv string) (token.Pos, bool) {
	for _, st := range stmts {
		if isNilGuard(st, recv) {
			return token.NoPos, false
		}
		if pos, bad := firstDeref(st, recv); bad {
			return pos, true
		}
	}
	return token.NoPos, false
}

func isNilGuard(st ast.Stmt, recv string) bool {
	ifst, ok := st.(*ast.IfStmt)
	if !ok || ifst.Init != nil {
		return false
	}
	bin, ok := ifst.Cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.EQL {
		return false
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == recv
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isRecv(bin.X) && isNil(bin.Y)) || (isNil(bin.X) && isRecv(bin.Y))
}

// firstDeref finds a receiver dereference inside one statement:
// a selector or star expression on the receiver that is not the
// function position of a call.
func firstDeref(st ast.Stmt, recv string) (token.Pos, bool) {
	methodCalls := map[*ast.SelectorExpr]bool{}
	ast.Inspect(st, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				methodCalls[sel] = true
			}
		}
		return true
	})
	var pos token.Pos
	ast.Inspect(st, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := e.X.(*ast.Ident); ok && id.Name == recv && !methodCalls[e] {
				pos = e.Pos()
				return false
			}
		case *ast.StarExpr:
			if id, ok := e.X.(*ast.Ident); ok && id.Name == recv {
				pos = e.Pos()
				return false
			}
		}
		return true
	})
	return pos, pos.IsValid()
}
