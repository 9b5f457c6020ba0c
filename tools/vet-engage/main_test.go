package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parse(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, file
}

func messages(fs []finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.pos.String()+": "+f.msg)
	}
	return out
}

func TestWallclockFlagsBareUse(t *testing.T) {
	fset, file := parse(t, `package deploy
import "time"
func f() time.Time { return time.Now() }
`)
	fs := checkWallclock(fset, file, inClockPackage)
	if len(fs) != 1 || !strings.Contains(fs[0].msg, "time.Now in a virtual-clock package") {
		t.Errorf("findings = %v", messages(fs))
	}
	if fs[0].pos.Line != 3 {
		t.Errorf("line = %d, want 3", fs[0].pos.Line)
	}
}

func TestWallclockAllowlist(t *testing.T) {
	fset, file := parse(t, `package deploy
import "time"
func f() time.Duration {
	start := time.Now() //engage:wallclock measuring real overhead
	//engage:wallclock
	return time.Since(start)
}
`)
	if fs := checkWallclock(fset, file, inClockPackage); len(fs) != 0 {
		t.Errorf("allowlisted uses flagged: %v", messages(fs))
	}
}

func TestWallclockAliasedImport(t *testing.T) {
	fset, file := parse(t, `package deploy
import wall "time"
func f() wall.Time { return wall.Now() }
`)
	fs := checkWallclock(fset, file, inClockPackage)
	if len(fs) != 1 || !strings.Contains(fs[0].msg, "wall.Now") {
		t.Errorf("findings = %v", messages(fs))
	}
}

func TestWallclockDotImport(t *testing.T) {
	fset, file := parse(t, `package deploy
import . "time"
var x = Now()
`)
	fs := checkWallclock(fset, file, inClockPackage)
	if len(fs) != 1 || !strings.Contains(fs[0].msg, "dot-import") {
		t.Errorf("findings = %v", messages(fs))
	}
}

func TestWallclockIgnoresOtherFuncs(t *testing.T) {
	fset, file := parse(t, `package deploy
import "time"
var d = 3 * time.Second
func f(t time.Time) string { return t.Format(time.RFC3339) }
`)
	if fs := checkWallclock(fset, file, inClockPackage); len(fs) != 0 {
		t.Errorf("non-clock uses flagged: %v", messages(fs))
	}
}

func TestWallclockNoTimeImport(t *testing.T) {
	fset, file := parse(t, `package deploy
func f() {}
`)
	if fs := checkWallclock(fset, file, inClockPackage); len(fs) != 0 {
		t.Errorf("findings = %v", messages(fs))
	}
}

func TestNilGuardFlagsUnguardedDeref(t *testing.T) {
	fset, file := parse(t, `package telemetry
type Span struct{ id int64 }
func (s *Span) ID() int64 { return s.id }
`)
	fs := checkNilGuard(fset, file)
	if len(fs) != 1 || !strings.Contains(fs[0].msg, `(*Span).ID dereferences receiver "s"`) {
		t.Errorf("findings = %v", messages(fs))
	}
}

func TestNilGuardAcceptsGuardedDeref(t *testing.T) {
	fset, file := parse(t, `package telemetry
type Span struct{ id int64 }
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}
func (s *Span) Late() int64 {
	var zero int64
	if s == nil {
		return zero
	}
	return s.id
}
`)
	if fs := checkNilGuard(fset, file); len(fs) != 0 {
		t.Errorf("guarded methods flagged: %v", messages(fs))
	}
}

func TestNilGuardAcceptsDelegation(t *testing.T) {
	// Inc delegates to Add, which guards; a method call on a nil
	// receiver is fine.
	fset, file := parse(t, `package telemetry
type Counter struct{ n int64 }
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n += n
}
func (c *Counter) Inc() { c.Add(1) }
`)
	if fs := checkNilGuard(fset, file); len(fs) != 0 {
		t.Errorf("delegating method flagged: %v", messages(fs))
	}
}

func TestNilGuardScopesToContract(t *testing.T) {
	// Unexported methods and types outside the instrument set are not
	// part of the nil-safety contract.
	fset, file := parse(t, `package telemetry
type Span struct{ id int64 }
func (s *Span) internal() int64 { return s.id }
type Line struct{ Name string }
func (l *Line) Title() string { return l.Name }
`)
	if fs := checkNilGuard(fset, file); len(fs) != 0 {
		t.Errorf("out-of-contract methods flagged: %v", messages(fs))
	}
}

func TestNilGuardDerefInCondition(t *testing.T) {
	// A field read inside the condition of a non-guard if counts as a
	// dereference before the guard.
	fset, file := parse(t, `package telemetry
type Gauge struct{ v int64 }
func (g *Gauge) Value() int64 {
	if g.v > 0 {
		return g.v
	}
	if g == nil {
		return 0
	}
	return g.v
}
`)
	fs := checkNilGuard(fset, file)
	if len(fs) != 1 {
		t.Errorf("findings = %v", messages(fs))
	}
}

func TestMaporderFlagsMapRange(t *testing.T) {
	fset, file := parse(t, `package lint
var codes = map[string]int{}
func emit() {
	for k := range codes {
		println(k)
	}
}
`)
	fs := checkMaporder(fset, []*ast.File{file})
	if len(fs) != 1 || !strings.Contains(fs[0].msg, "maporder: range over a map") {
		t.Errorf("findings = %v", messages(fs))
	}
	if fs[0].pos.Line != 4 {
		t.Errorf("line = %d, want 4", fs[0].pos.Line)
	}
}

func TestMaporderAllowlist(t *testing.T) {
	fset, file := parse(t, `package lint
func keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m { //engage:maporder — collected then sorted below
		out = append(out, k)
	}
	//engage:maporder counting only
	for range m {
		_ = out
	}
	return out
}
`)
	if fs := checkMaporder(fset, []*ast.File{file}); len(fs) != 0 {
		t.Errorf("allowlisted ranges flagged: %v", messages(fs))
	}
}

func TestMaporderIgnoresNonMaps(t *testing.T) {
	fset, file := parse(t, `package lint
func f(xs []int, s string, ch chan int) {
	for range xs {
	}
	for range s {
	}
	for range ch {
	}
}
`)
	if fs := checkMaporder(fset, []*ast.File{file}); len(fs) != 0 {
		t.Errorf("non-map ranges flagged: %v", messages(fs))
	}
}

func TestMaporderNamedMapType(t *testing.T) {
	// A locally declared named type whose underlying type is a map is
	// still a map.
	fset, file := parse(t, `package store
type records map[string]int
func f(r records) {
	for k := range r {
		println(k)
	}
}
`)
	fs := checkMaporder(fset, []*ast.File{file})
	if len(fs) != 1 {
		t.Errorf("findings = %v", messages(fs))
	}
}

func TestMaporderSkipsUnresolvedTypes(t *testing.T) {
	// Imports are stubbed: a map-typed expression from another package
	// cannot be resolved locally and must be skipped, not guessed at.
	fset, file := parse(t, `package lint
import "engage/internal/other"
func f() {
	for k := range other.Things() {
		println(k)
	}
}
`)
	if fs := checkMaporder(fset, []*ast.File{file}); len(fs) != 0 {
		t.Errorf("unresolved range flagged: %v", messages(fs))
	}
}

func TestWallclockCoversCountTests(t *testing.T) {
	// The work-counter test file is held to the ban; other test files in
	// the same package may still time themselves.
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "workload")
	timed := `package workload
import "time"
var start = time.Now()
`
	writeFile(t, filepath.Join(dir, "counts_test.go"), timed)
	writeFile(t, filepath.Join(dir, "other_test.go"), timed)
	chdir(t, root)
	fset := token.NewFileSet()
	fs, err := checkDir(fset, "internal/workload", newResourceImporter(fset, "."))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || !strings.HasSuffix(fs[0].pos.Filename, "counts_test.go") || !strings.Contains(fs[0].msg, "time.Now in a work-counter test") {
		t.Errorf("findings = %v", messages(fs))
	}
}

// subtyperSource is a stand-in for internal/resource's checker API.
const subtyperSource = `package resource
type Key struct{ Name string }
type Subtyper struct{}
func NewSubtyper() *Subtyper { return &Subtyper{} }
func (s *Subtyper) Explain(sub, super Key) error { return nil }
func (s *Subtyper) IsSubtype(sub, super Key) bool { return true }
`

// subtyperModule writes a module whose internal/resource is
// subtyperSource and returns an importer that resolves it.
func subtyperModule(t *testing.T, fset *token.FileSet) *resourceImporter {
	t.Helper()
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "go.mod"), "module example.com/m\n\ngo 1.22\n")
	writeFile(t, filepath.Join(root, "internal", "resource", "subtype.go"), subtyperSource)
	return newResourceImporter(fset, root)
}

func TestSubtypePredFlagsComparisonInPackage(t *testing.T) {
	fset, file := parse(t, subtyperSource+`func f(s *Subtyper, a, b Key) bool {
	if s.Explain(a, b) != nil {
		return false
	}
	return nil == (s.Explain(b, a))
}
`)
	fs := checkSubtypePred(fset, []*ast.File{file}, &stubImporter{})
	if len(fs) != 2 || !strings.Contains(fs[0].msg, "IsSubtype for the question") {
		t.Fatalf("findings = %v", messages(fs))
	}
	if fs[0].pos.Line != 8 || fs[1].pos.Line != 11 {
		t.Errorf("lines = %d, %d; want 8, 11", fs[0].pos.Line, fs[1].pos.Line)
	}
}

func TestSubtypePredFlagsComparisonAcrossPackages(t *testing.T) {
	fset := token.NewFileSet()
	imp := subtyperModule(t, fset)
	file, err := parser.ParseFile(fset, "x.go", `package lint
import "example.com/m/internal/resource"
type index struct{ sub *resource.Subtyper }
func (ix *index) ok(a, b resource.Key) bool { return ix.sub.Explain(a, b) == nil }
func g(k resource.Key) bool {
	s := resource.NewSubtyper()
	return s.Explain(k, k) == nil
}
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := checkSubtypePred(fset, []*ast.File{file}, imp)
	if len(fs) != 2 || fs[0].pos.Line != 4 || fs[1].pos.Line != 7 {
		t.Errorf("findings = %v", messages(fs))
	}
}

func TestSubtypePredAcceptsOtherUses(t *testing.T) {
	// Using the reason, asking IsSubtype, another type's Explain, and a
	// receiver that cannot be resolved are all left alone.
	fset := token.NewFileSet()
	imp := subtyperModule(t, fset)
	file, err := parser.ParseFile(fset, "x.go", `package typecheck
import (
	"example.com/m/internal/other"
	"example.com/m/internal/resource"
)
type explainer struct{}
func (explainer) Explain(a, b int) error { return nil }
func f(s *resource.Subtyper, k resource.Key) error {
	if err := s.Explain(k, k); err != nil {
		return err
	}
	if !s.IsSubtype(k, k) || (explainer{}).Explain(1, 2) == nil || other.Checker().Explain(k, k) == nil {
		return nil
	}
	return s.Explain(k, k)
}
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fs := checkSubtypePred(fset, []*ast.File{file}, imp); len(fs) != 0 {
		t.Errorf("findings = %v", messages(fs))
	}
}

func writeFile(t *testing.T, name, src string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

func TestExpandPatterns(t *testing.T) {
	dirs, err := expand([]string{"."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || dirs[0] != "." {
		t.Errorf("dirs = %v", dirs)
	}
}
